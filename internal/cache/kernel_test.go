package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/program"
	"repro/internal/trace"
)

// Differential grid for the replay kernel and its class-residency memo:
// one Sim and one BatchSim per geometry, reused across many layouts, must
// agree with the naive set model (oracle_test.go) on every counter —
// including layouts edited in place, windows that switch layout and
// compilation family without a Reset, and Access calls mixed in between.

// kernelConfigs spans direct-mapped and 2-, 4- and 8-way LRU, power-of-two
// and other set counts and line sizes, and caches small enough that many
// activation spans exceed NumLines (the non-collapsing path).
var kernelConfigs = []Config{
	{SizeBytes: 8192, LineBytes: 32, Assoc: 1},
	{SizeBytes: 8192, LineBytes: 32, Assoc: 2},
	{SizeBytes: 8192, LineBytes: 32, Assoc: 4},
	{SizeBytes: 8192, LineBytes: 32, Assoc: 8},
	{SizeBytes: 3072, LineBytes: 32, Assoc: 1}, // 96 sets
	{SizeBytes: 3072, LineBytes: 24, Assoc: 2}, // 24-byte lines
	{SizeBytes: 1440, LineBytes: 24, Assoc: 4}, // 15 sets
	{SizeBytes: 480, LineBytes: 24, Assoc: 2},  // 10 sets, 20 lines
	{SizeBytes: 256, LineBytes: 32, Assoc: 8},  // one set
	{SizeBytes: 96, LineBytes: 32, Assoc: 1},   // 3 lines
}

// kernelProgram draws procedure sizes from a few lines up to past the
// largest cache, so some spans exceed NumLines everywhere.
func kernelProgram(rng *rand.Rand, n int) *program.Program {
	procs := make([]program.Procedure, n)
	for i := range procs {
		size := 1 + rng.Intn(400)
		if i%11 == 0 {
			size = 6000 + rng.Intn(4000)
		}
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: size}
	}
	return program.MustNew(procs)
}

// kernelTrace draws activations from a small hot set most of the time, so
// classes recur with their sets undisturbed and the memo has work to do,
// with partial extents and repeat counts from one to eight.
func kernelTrace(rng *rand.Rand, prog *program.Program, n int) *trace.Trace {
	hot := 1 + rng.Intn(6)
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		p := program.ProcID(rng.Intn(prog.NumProcs()))
		if rng.Intn(4) > 0 {
			p = program.ProcID(rng.Intn(hot))
		}
		e := trace.Event{Proc: p, Repeat: int32(rng.Intn(9))}
		if rng.Intn(3) == 0 {
			e.Extent = int32(1 + rng.Intn(prog.Size(p)))
		}
		tr.Append(e)
	}
	return tr
}

// kernelLayout places the procedures in a random order with random gaps:
// mostly packed or a few bytes apart (so neighbours share lines), now and
// then a jump far past everything else.
func kernelLayout(rng *rand.Rand, prog *program.Program) *program.Layout {
	l := program.NewLayout(prog)
	addr := rng.Intn(64)
	for _, i := range rng.Perm(prog.NumProcs()) {
		l.SetAddr(program.ProcID(i), addr)
		addr += prog.Size(program.ProcID(i))
		switch rng.Intn(8) {
		case 0:
			addr += 1 << (20 + rng.Intn(20))
		case 1, 2:
			addr += rng.Intn(100)
		}
	}
	return l
}

// naiveReplay is the ReplayStats the engines must report for tr placed by
// layout: every activation is an event; a repeated one collapses when its
// span fits in NumLines and falls back otherwise.
func naiveReplay(cfg Config, layout *program.Layout, tr *trace.Trace) ReplayStats {
	var rs ReplayStats
	lb := int64(cfg.LineBytes)
	for _, e := range tr.Events {
		base := int64(layout.Addr(e.Proc))
		span := (base+int64(e.ExtentBytes(layout.Program()))-1)/lb - base/lb + 1
		r := int64(e.Repeats())
		rs.Events++
		switch {
		case r == 1:
		case span <= int64(cfg.NumLines()):
			rs.FastEvents++
			rs.CollapsedRepeats += r - 1
			rs.CollapsedRefs += (r - 1) * span
		default:
			rs.FallbackEvents++
		}
	}
	return rs
}

// naiveStats replays tr placed by layout through a fresh naive cache.
func naiveStats(cfg Config, layout *program.Layout, tr *trace.Trace) Stats {
	c := newNaiveCache(cfg)
	lines(int64(cfg.LineBytes), layout, tr, func(_ program.ProcID, ln int64) { c.access(ln) })
	return c.st
}

// TestKernelMatchesNaive reuses one Sim and one BatchSim per geometry over
// 36 layouts. Every fourth layout is then edited in place with SetAddr
// and replayed again through the same Sim: the per-class table must be
// rebuilt from the edited addresses, never reused by layout identity.
func TestKernelMatchesNaive(t *testing.T) {
	for ci, cfg := range kernelConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("%d_%d_%d", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			prog := kernelProgram(rng, 30)
			tr := kernelTrace(rng, prog, 400)
			ct := CompileTrace(prog, tr)
			sim := MustNewSim(cfg)
			layouts := make([]*program.Layout, 36)
			for i := range layouts {
				layouts[i] = kernelLayout(rng, prog)
			}
			check := func(what string, l *program.Layout) {
				t.Helper()
				want := naiveStats(cfg, l, tr)
				if got := sim.RunCompiled(ct, l); got != want {
					t.Errorf("%s: Sim %+v, naive %+v", what, got, want)
				}
				if got, want := sim.Replay(), naiveReplay(cfg, l, tr); got != want {
					t.Errorf("%s: replay counters %+v, want %+v", what, got, want)
				}
			}
			for i, l := range layouts {
				check(fmt.Sprintf("layout %d", i), l)
				if i%4 == 0 {
					p := program.ProcID(rng.Intn(prog.NumProcs()))
					l.SetAddr(p, l.Extent()+rng.Intn(3*cfg.SizeBytes))
					check(fmt.Sprintf("layout %d after SetAddr", i), l)
				}
			}

			bs := MustNewBatchSim(cfg)
			for lo, k := 0, 1; lo < len(layouts); lo, k = lo+k, k%5+1 {
				hi := min(lo+k, len(layouts))
				tables := make([]*CompiledLayout, hi-lo)
				for i := range tables {
					var err error
					if tables[i], err = CompileLayout(cfg, ct, layouts[lo+i]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := bs.Run(ct, tables, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range res.Stats {
					if want := naiveStats(cfg, layouts[lo+i], tr); st != want {
						t.Errorf("batch of %d, lane %d: %+v, naive %+v", hi-lo, i, st, want)
					}
				}
			}
		})
	}
}

// TestKernelWindowsCarryState replays consecutive windows of one trace
// through one Sim without a Reset, switching layout and compilation
// family between windows and interleaving Access calls (some far outside
// every layout). Cache contents and first touches must carry across all
// of it exactly as in one naive cache fed the same reference stream. A
// BatchSim of one to five lanes replays the same windows per lane.
func TestKernelWindowsCarryState(t *testing.T) {
	for ci, cfg := range kernelConfigs {
		rng := rand.New(rand.NewSource(int64(ci) + 101))
		prog := kernelProgram(rng, 25)
		tr := kernelTrace(rng, prog, 500)
		families := []*CompiledTrace{CompileTrace(prog, tr), CompileTrace(prog, tr)}
		layouts := make([]*program.Layout, 5)
		for i := range layouts {
			layouts[i] = kernelLayout(rng, prog)
		}
		lb := int64(cfg.LineBytes)

		sim := MustNewSim(cfg)
		naive := newNaiveCache(cfg)
		for lo := 0; lo < tr.Len(); {
			hi := min(lo+1+rng.Intn(60), tr.Len())
			ct, l := families[rng.Intn(2)], layouts[rng.Intn(len(layouts))]
			before := naive.st
			lines(lb, l, &trace.Trace{Events: tr.Events[lo:hi]}, func(_ program.ProcID, ln int64) { naive.access(ln) })
			want := Stats{Refs: naive.st.Refs - before.Refs, Misses: naive.st.Misses - before.Misses, Cold: naive.st.Cold - before.Cold}
			if got := sim.ReplayCompiled(ct.Slice(lo, hi), l); got != want {
				t.Errorf("cfg %+v window [%d:%d): delta %+v, naive %+v", cfg, lo, hi, got, want)
			}
			for a := rng.Intn(4); a > 0; a-- {
				addr := int64(rng.Intn(l.Extent() + 1))
				if rng.Intn(4) == 0 {
					addr = int64(rng.Intn(1 << 40))
				}
				if got, want := sim.Access(addr), naive.access(addr/lb); got != want {
					t.Errorf("cfg %+v Access(%d) after window [%d:%d): hit %v, naive %v", cfg, addr, lo, hi, got, want)
				}
			}
			lo = hi
		}
		if sim.Stats() != naive.st {
			t.Errorf("cfg %+v: totals %+v, naive %+v", cfg, sim.Stats(), naive.st)
		}

		k := 1 + ci%5
		ct := families[0]
		tables := make([]*CompiledLayout, k)
		lanes := make([]*naiveCache, k)
		for i := range tables {
			var err error
			if tables[i], err = CompileLayout(cfg, ct, layouts[i]); err != nil {
				t.Fatal(err)
			}
			lanes[i] = newNaiveCache(cfg)
		}
		bs := MustNewBatchSim(cfg)
		if err := bs.Bind(tables); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < tr.Len(); {
			hi := min(lo+1+rng.Intn(60), tr.Len())
			deltas, err := bs.Replay(ct.Slice(lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range lanes {
				before := c.st
				lines(lb, layouts[i], &trace.Trace{Events: tr.Events[lo:hi]}, func(_ program.ProcID, ln int64) { c.access(ln) })
				if want := (Stats{Refs: c.st.Refs - before.Refs, Misses: c.st.Misses - before.Misses, Cold: c.st.Cold - before.Cold}); deltas[i] != want {
					t.Errorf("cfg %+v lane %d window [%d:%d): delta %+v, naive %+v", cfg, i, lo, hi, deltas[i], want)
				}
			}
			lo = hi
		}
	}
}

// A warmed Sim replays a layout it has never seen without allocating: the
// per-class table, the first-touch index and the stamp store are rebuilt
// in place. The warm-up layout gives every procedure its own lines at the
// worst alignment, so no later layout of the program needs more room.
func TestRunCompiledFreshLayoutAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog := kernelProgram(rng, 40)
	ct := CompileTrace(prog, kernelTrace(rng, prog, 600))
	for _, cfg := range []Config{PaperConfig, {SizeBytes: 8192, LineBytes: 32, Assoc: 2}} {
		warm := program.NewLayout(prog)
		for p := 0; p < prog.NumProcs(); p++ {
			warm.SetAddr(program.ProcID(p), p*16384+31)
		}
		fresh := make([]*program.Layout, 11)
		for i := range fresh {
			fresh[i] = kernelLayout(rng, prog)
		}
		sim := MustNewSim(cfg)
		sim.RunCompiled(ct, warm)
		i := 0
		if n := testing.AllocsPerRun(10, func() { sim.RunCompiled(ct, fresh[i]); i++ }); n != 0 {
			t.Errorf("cfg %+v: RunCompiled on a fresh layout allocates %.0f times per run, want 0", cfg, n)
		}
	}
}
