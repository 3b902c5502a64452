package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// hkcCase decodes bytes into one HKC input: a cache of 1, 8, 256 or 12
// lines of 16, 32 or 64 bytes; up to 41 procedures, some larger than the
// cache; a popular set that is nil (every procedure) or a decoded subset;
// and a call graph over the popular procedures whose edges may repeat
// (their weights add up) and whose nodes may be isolated. Every input
// decodes to a valid case; missing bytes read as zero.
func hkcCase(data []byte) (*program.Program, *graph.Graph, *popular.Set, cache.Config) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	geo := next()
	lines := [...]int{1, 8, 256, 12}[geo%4]
	lineBytes := [...]int{16, 32, 64}[geo/4%3]
	cfg := cache.Config{SizeBytes: lines * lineBytes, LineBytes: lineBytes, Assoc: 1}

	n := 2 + next()%40
	procs := make([]program.Procedure, n)
	for i := range procs {
		b := next()
		size := 1 + b*lineBytes/4 // up to 64 lines
		if b >= 250 {
			size = cfg.SizeBytes*(b-249) + b // larger than the cache
		}
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%d", i), Size: size}
	}
	prog := program.MustNew(procs)

	// A nil popular set, or the procedures activated at least twice in a
	// trace whose counts the bytes choose (ties order the set by id).
	var pop *popular.Set
	inPop := func(program.ProcID) bool { return true }
	if next()%2 == 1 {
		tr := &trace.Trace{}
		for p := range procs {
			for c := next() % 4; c > 0; c-- {
				tr.Append(trace.Event{Proc: program.ProcID(p)})
			}
		}
		pop = popular.Select(prog, tr, popular.Options{Coverage: 1, MinCount: 2})
		inPop = pop.Contains
	}

	g := graph.New()
	for len(data) > 0 {
		u, v, w, shift := next()%n, next()%n, next(), next()
		switch {
		case !inPop(program.ProcID(u)):
		case u == v || shift >= 240:
			g.AddNode(graph.NodeID(u)) // an isolated node, unless it gets edges later
		case inPop(program.ProcID(v)):
			g.AddEdgeWeight(graph.NodeID(u), graph.NodeID(v), int64(1+w)<<(shift%8))
		}
	}
	return prog, g, pop, cfg
}

// requireHKCMatchesOracle runs HKC and the oracle on one input and fails
// unless both give the same error or the same address for every procedure.
func requireHKCMatchesOracle(t *testing.T, label string, prog *program.Program, g *graph.Graph, pop *popular.Set, cfg cache.Config) {
	t.Helper()
	got, gerr := HKC(prog, g, pop, cfg)
	want, werr := hkcOracle(prog, g, pop, cfg)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, oracle %v", label, gerr, werr)
	}
	if werr != nil {
		return
	}
	for p := 0; p < prog.NumProcs(); p++ {
		if a, b := got.Addr(program.ProcID(p)), want.Addr(program.ProcID(p)); a != b {
			t.Fatalf("%s: procedure %d at %d, oracle %d", label, p, a, b)
		}
	}
}

// TestHKCMatchesOracle compares the vector-scored HKC with the per-pad
// oracle on 1200 random inputs covering every decoded geometry, popular
// nil and subsets, oversized procedures, isolated nodes and repeated
// edges.
func TestHKCMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	for seed := 0; seed < 1200; seed++ {
		data := make([]byte, 3+rng.Intn(400))
		rng.Read(data)
		data[0] = byte(seed) // cycle through the geometries
		prog, g, pop, cfg := hkcCase(data)
		requireHKCMatchesOracle(t, fmt.Sprintf("seed %d", seed), prog, g, pop, cfg)
	}
}

func FuzzHKC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 10, 20, 30, 40, 50, 60, 0, 0, 1, 9, 0, 1, 2, 3, 0, 2, 4, 200, 7})
	f.Add([]byte{1, 12, 255, 251, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 3, 3, 2, 1, 2, 1, 2, 5, 1, 6, 7, 8, 9, 10, 11, 2, 3, 4, 5})
	f.Add([]byte{2, 30, 100, 200, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 1, 2, 3, 1, 2, 3, 3, 2, 1, 0, 4, 5, 9, 9, 4, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, g, pop, cfg := hkcCase(data)
		requireHKCMatchesOracle(t, "fuzz", prog, g, pop, cfg)
	})
}
