package cache

import (
	"fmt"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// fuzzInput decodes fuzz bytes into a geometry, a program, two layouts of
// it and a trace. Every byte string decodes to something valid: missing
// bytes read as zero.
type fuzzInput struct {
	data []byte
	at   int
}

func (f *fuzzInput) next() int {
	if f.at >= len(f.data) {
		f.at++
		return 0
	}
	b := int(f.data[f.at])
	f.at++
	return b
}

func (f *fuzzInput) decode() (Config, *program.Program, [2]*program.Layout, *trace.Trace) {
	lineBytes := []int{16, 24, 32}[f.next()%3]
	assoc := []int{1, 2, 3, 4, 8}[f.next()%5]
	cfg := Config{SizeBytes: lineBytes * assoc * (1 + f.next()%16), LineBytes: lineBytes, Assoc: assoc}

	procs := make([]program.Procedure, 1+f.next()%10)
	for i := range procs {
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: 1 + f.next()*(1+f.next()%8)}
	}
	prog := program.MustNew(procs)

	// Layouts may leave gaps, share lines, overlap or jump far away: the
	// engines must agree with the naive model on any placement.
	var layouts [2]*program.Layout
	for k := range layouts {
		l := program.NewLayout(prog)
		addr := 0
		for p := range procs {
			b := f.next()
			switch b % 4 {
			case 0:
				addr += prog.Size(program.ProcID(p)) // packed
			case 1:
				addr += b // gap, or overlap with a large procedure
			case 2:
				addr += b << 30 // far away
			}
			l.SetAddr(program.ProcID(p), addr)
		}
		layouts[k] = l
	}

	tr := &trace.Trace{}
	for f.at < len(f.data) {
		b := f.next()
		p := program.ProcID(b % len(procs))
		e := trace.Event{Proc: p, Repeat: int32(f.next() % 6)}
		if b&0x80 != 0 {
			e.Extent = int32(1 + f.next()%prog.Size(p))
		}
		tr.Append(e)
	}
	return cfg, prog, layouts, tr
}

// FuzzReplayEngine decodes the input into a program, two layouts, a trace
// and a geometry, then requires Sim (full runs and two windows without a
// Reset) and a two-lane BatchSim to agree with the naive set model on
// every counter.
func FuzzReplayEngine(f *testing.F) {
	f.Add([]byte{2, 0, 7, 3, 200, 1, 40, 0, 0, 1, 2, 3, 4, 5, 0, 129, 7, 1, 2, 3, 4})
	f.Add([]byte{0, 1, 0, 5, 90, 3, 17, 2, 255, 1, 6, 2, 2, 1, 3, 9, 0, 1, 5, 1, 5, 1, 5, 1, 200, 3, 4})
	f.Add([]byte{1, 4, 15, 9, 255, 7, 255, 7, 12, 0, 33, 1, 1, 0, 2, 0, 4, 3, 130, 90, 5, 131, 44, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{data: data}
		cfg, prog, layouts, tr := in.decode()
		ct := CompileTrace(prog, tr)
		sim := MustNewSim(cfg)
		tables := make([]*CompiledLayout, len(layouts))
		for i, l := range layouts {
			want := naiveStats(cfg, l, tr)
			if got := sim.RunCompiled(ct, l); got != want {
				t.Fatalf("layout %d: Sim %+v, naive %+v", i, got, want)
			}
			if got, want := sim.Replay(), naiveReplay(cfg, l, tr); got != want {
				t.Fatalf("layout %d: replay counters %+v, want %+v", i, got, want)
			}
			var err error
			if tables[i], err = CompileLayout(cfg, ct, l); err != nil {
				t.Fatal(err)
			}
		}
		res, err := MustNewBatchSim(cfg).Run(ct, tables, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.Stats {
			if want := naiveStats(cfg, layouts[i], tr); st != want {
				t.Fatalf("lane %d: BatchSim %+v, naive %+v", i, st, want)
			}
		}

		// The first half of the trace placed by one layout, the rest by
		// the other, with no Reset in between.
		mid := tr.Len() / 2
		naive := newNaiveCache(cfg)
		lb := int64(cfg.LineBytes)
		lines(lb, layouts[0], &trace.Trace{Events: tr.Events[:mid]}, func(_ program.ProcID, ln int64) { naive.access(ln) })
		lines(lb, layouts[1], &trace.Trace{Events: tr.Events[mid:]}, func(_ program.ProcID, ln int64) { naive.access(ln) })
		sim.Reset()
		sim.ReplayCompiled(ct.Slice(0, mid), layouts[0])
		sim.ReplayCompiled(ct.Slice(mid, tr.Len()), layouts[1])
		if sim.Stats() != naive.st {
			t.Fatalf("windows across layouts: Sim %+v, naive %+v", sim.Stats(), naive.st)
		}
	})
}
