package wcg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trace"
)

// buildFilteredOracle is the map-of-maps builder that Build and
// BuildFiltered replaced, kept as the reference the differential test
// compares them against: every kept activation becomes a node, and every
// transition between consecutive kept activations of different procedures
// increments the edge between them. A nil keep keeps every procedure.
func buildFilteredOracle(tr *trace.Trace, keep func(program.ProcID) bool) *graph.Graph {
	g := graph.New()
	prev := program.NoProc
	tr.ProcRefs(func(p program.ProcID) {
		if keep != nil && !keep(p) {
			return
		}
		g.AddNode(graph.NodeID(p))
		if prev != program.NoProc && prev != p {
			g.Increment(graph.NodeID(prev), graph.NodeID(p))
		}
		prev = p
	})
	return g
}

// requireSameGraph fails unless got and want have the same nodes and the
// same weighted edges.
func requireSameGraph(t *testing.T, label string, got, want *graph.Graph) {
	t.Helper()
	if g, w := got.Nodes(), want.Nodes(); !slices.Equal(g, w) {
		t.Fatalf("%s: nodes %v, want %v", label, g, w)
	}
	if g, w := got.Edges(), want.Edges(); !slices.Equal(g, w) {
		t.Fatalf("%s: edges %v, want %v", label, g, w)
	}
}

// TestWCGMatchesOracle compares Build and BuildFiltered with the map
// oracle on random traces: runs of self-transitions, procedures filtered
// out between two kept ones (the bridges BuildFiltered must preserve),
// single-event and empty traces, and sparse id spaces.
func TestWCGMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for seed := 0; seed < 400; seed++ {
		procs := 1 + rng.Intn(40)
		tr := &trace.Trace{}
		switch seed % 8 {
		case 0:
			// empty trace
		case 1:
			tr.Append(trace.Event{Proc: program.ProcID(rng.Intn(procs))})
		default:
			n := rng.Intn(400)
			for i := 0; i < n; i++ {
				p := program.ProcID(rng.Intn(procs))
				if seed%3 == 0 {
					p = program.ProcID(rng.Intn(min(procs, 4))) // a few hot procedures
				}
				for r := rng.Intn(3); r >= 0; r-- { // self-transitions
					tr.Append(trace.Event{Proc: p})
				}
			}
		}
		requireSameGraph(t, "Build", Build(tr), buildFilteredOracle(tr, nil))
		kept := make([]bool, procs)
		for p := range kept {
			kept[p] = rng.Intn(3) > 0
		}
		keep := func(p program.ProcID) bool { return kept[p] }
		requireSameGraph(t, "BuildFiltered", BuildFiltered(tr, keep), buildFilteredOracle(tr, keep))
		none := func(program.ProcID) bool { return false }
		requireSameGraph(t, "BuildFiltered none", BuildFiltered(tr, none), buildFilteredOracle(tr, none))
	}
}
