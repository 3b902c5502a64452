package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzAssocEngine decodes the input into a small program, a trace, a cache
// geometry and a pair database (the trace's, plus raw Add calls that may
// name untracked blocks or D(p,{p,s}) pairs), then runs the Section 6
// merge loop: at every merge the engine's cost vector must equal the
// oracle's.
//
// Layout: number of procedures, associativity, set count, chunk size and
// popular-set choice, one byte each; one size byte per procedure; a count
// of Add calls followed by three bytes per call; then the trace, one byte
// per event plus an extent byte for events with the top bit set.
func FuzzAssocEngine(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 0, 1, 2, 3, 4, 0, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{6, 1, 1, 1, 1, 200, 30, 90, 5, 255, 64, 3, 1, 1, 2, 4, 4, 5, 0, 1, 2, 0, 3, 4, 5, 0, 129, 7, 2, 3})
	f.Add([]byte{3, 0, 15, 3, 0, 250, 250, 250, 0, 0, 1, 2, 0, 1, 2, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 2 + in.next()%7
		assoc := []int{2, 4}[in.next()%2]
		sets := 1 + in.next()%16
		chunkSize := []int{32, 48, 256, 1024}[in.next()%4]
		trim := in.next()%2 == 1
		procs := make([]program.Procedure, n)
		for i := range procs {
			procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: 1 + 3*in.next()}
		}
		prog := program.MustNew(procs)
		adds := make([][3]int, in.next()%32)
		for i := range adds {
			adds[i] = [3]int{in.next(), in.next(), in.next()}
		}
		tr := &trace.Trace{}
		for len(in) > 0 && tr.Len() < 256 {
			b := in.next()
			ev := trace.Event{Proc: program.ProcID(b % n)}
			if b&0x80 != 0 {
				ev.Extent = int32(1 + in.next()%prog.Size(ev.Proc))
			}
			tr.Append(ev)
		}

		cfg := cache.Config{SizeBytes: sets * assoc * 32, LineBytes: 32, Assoc: assoc}
		pop := popular.All(prog)
		if trim {
			pop = popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
			if pop.Len() == 0 {
				pop = popular.All(prog)
			}
		}
		res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: chunkSize, Popular: pop})
		if err != nil {
			t.Fatal(err)
		}
		ids := res.Chunker.NumChunks() + 2
		for _, a := range adds {
			_ = db.Add(trg.BlockID(a[0]%ids), trg.BlockID(a[1]%ids), trg.BlockID(a[2]%ids))
		}
		checkAssocEngine(t, fmt.Sprintf("%d-way, %d sets, chunk %d", assoc, sets, chunkSize), prog, res, db, pop, cfg)
	})
}
