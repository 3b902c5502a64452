package main

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

func mustLayout(t *testing.T, prog *program.Program, addrs ...int) *program.Layout {
	t.Helper()
	l := program.NewLayout(prog)
	for p, a := range addrs {
		l.SetAddr(program.ProcID(p), a)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRefStatsHandCounted pins the reference model to counts worked out by
// hand, so it does not merely agree with the engine it checks.
func TestRefStatsHandCounted(t *testing.T) {
	// A cache of two 32-byte lines. a (line 0) and b (line 2) share set 0
	// when direct-mapped; c, at 130..169, covers lines 4 and 5.
	prog := program.MustNew([]program.Procedure{{Name: "a", Size: 32}, {Name: "b", Size: 32}, {Name: "c", Size: 40}})
	l := mustLayout(t, prog, 0, 64, 130)
	tr := &trace.Trace{Events: []trace.Event{{Proc: 0}, {Proc: 1}, {Proc: 0}, {Proc: 2, Repeat: 2}}}
	dm := cache.Config{SizeBytes: 64, LineBytes: 32, Assoc: 1}
	// a miss(cold), b miss(cold, evicts a), a miss (conflict), c: line 4
	// miss cold (evicts a), line 5 miss cold, then both hit on the repeat.
	if got, want := refStats(dm, l, tr), (cache.Stats{Refs: 7, Misses: 5, Cold: 4}); got != want {
		t.Errorf("direct-mapped: got %+v, want %+v", got, want)
	}
	lru := cache.Config{SizeBytes: 64, LineBytes: 32, Assoc: 2}
	// One set of two ways: a and b both stay, so the second a hits; c's
	// lines 4 and 5 evict b then a and hit on the repeat.
	if got, want := refStats(lru, l, tr), (cache.Stats{Refs: 7, Misses: 4, Cold: 4}); got != want {
		t.Errorf("2-way LRU: got %+v, want %+v", got, want)
	}
	// An unaligned start adds a line: c at 30 spans lines 0..2.
	l2 := mustLayout(t, prog, 200, 300, 30)
	tr2 := &trace.Trace{Events: []trace.Event{{Proc: 2}}}
	if got := refStats(dm, l2, tr2); got.Refs != 3 || got.Misses != 3 {
		t.Errorf("unaligned span: got %+v, want 3 refs and 3 misses", got)
	}
}

// TestRefStatsMatchesRunTrace checks the reference model against the
// cache package on hand-built programs with unaligned starts, partial
// extents, repeats and spans larger than the cache (which conflict with
// themselves), in the benchmark's two geometries and a small one.
func TestRefStatsMatchesRunTrace(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "small", Size: 100},
		{Name: "huge", Size: 8192 + 96}, // wider than the whole cache
		{Name: "odd", Size: 33},
		{Name: "mid", Size: 700},
		{Name: "tiny", Size: 1},
	})
	layouts := []*program.Layout{
		program.DefaultLayout(prog),
		mustLayout(t, prog, 5, 300, 8700, 9001, 12345),
		mustLayout(t, prog, 8192*3+17, 31, 8192+200, 20000, 8192*3),
	}
	tr := &trace.Trace{Events: []trace.Event{
		{Proc: 0}, {Proc: 1, Repeat: 3}, {Proc: 2, Repeat: 7}, {Proc: 0, Extent: 40},
		{Proc: 3, Extent: 65, Repeat: 4}, {Proc: 1, Extent: 5000}, {Proc: 4, Repeat: 9},
		{Proc: 3}, {Proc: 1}, {Proc: 0, Repeat: 2}, {Proc: 2},
	}}
	geoms := []cache.Config{dmConfig, lruConfig, {SizeBytes: 256, LineBytes: 32, Assoc: 2}}
	for li, l := range layouts {
		for _, cfg := range geoms {
			want, err := cache.RunTrace(cfg, l, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := refStats(cfg, l, tr); got != want {
				t.Errorf("layout %d, %+v: reference %+v, cache %+v", li, cfg, got, want)
			}
		}
	}
}

// TestRefStatsMatchesRunTraceRandom widens the comparison to random
// programs, layouts with gaps and traces.
func TestRefStatsMatchesRunTraceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		procs := make([]program.Procedure, 2+rng.Intn(30))
		for p := range procs {
			procs[p] = program.Procedure{Name: fmt.Sprintf("p%d", p), Size: 1 + rng.Intn(3000)}
		}
		prog := program.MustNew(procs)
		l := program.NewLayout(prog)
		addr := rng.Intn(64)
		for _, p := range rng.Perm(len(procs)) {
			l.SetAddr(program.ProcID(p), addr)
			addr += procs[p].Size + rng.Intn(100)
		}
		tr := &trace.Trace{}
		for e := 0; e < 500; e++ {
			p := rng.Intn(len(procs))
			tr.Append(trace.Event{
				Proc:   program.ProcID(p),
				Extent: int32(rng.Intn(procs[p].Size + 1)),
				Repeat: int32(rng.Intn(5)),
			})
		}
		for _, cfg := range []cache.Config{dmConfig, lruConfig} {
			want, err := cache.RunTrace(cfg, l, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := refStats(cfg, l, tr); got != want {
				t.Fatalf("case %d, %+v: reference %+v, cache %+v", i, cfg, got, want)
			}
		}
	}
}
