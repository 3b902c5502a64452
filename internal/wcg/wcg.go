// Package wcg builds the weighted call graph used by Pettis & Hansen style
// placement and by HKC.
//
// Following Section 2 of the paper, the graph is undirected and the weight
// W(e_p,q) is the total number of control-flow transitions between
// procedures p and q in the trace — each call contributes a transition
// caller→callee and (typically) a matching return callee→caller, so weights
// are about twice those of a classic call-count WCG. The factor of two does
// not change the placements PH produces.
//
// The transitions accumulate in graph.Rows, the accumulator TRG_select,
// TRG_place and the pair database share: a transition p→q adds one to
// rows[p][q], and freezing sums rows[p][q] + rows[q][p] into W(p,q).
package wcg

import (
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trace"
)

// Build constructs the transition-count WCG from a procedure-level trace.
// Consecutive activations of the same procedure (e.g. a loop that re-enters
// an already-running procedure representation) contribute no transition.
// Procedure ids must be non-negative, as Trace.Validate ensures.
func Build(tr *trace.Trace) *graph.Graph { return build(tr, nil) }

// BuildFiltered constructs the WCG restricted to procedures for which keep
// returns true. Transitions through filtered-out procedures connect the
// surrounding kept procedures, mirroring how HKC and GBSC consider only
// popular procedures: "it is possible to have the only connection between
// two popular procedures be through an unpopular procedure" (Section 4.3) —
// the filtered WCG preserves that connection.
func BuildFiltered(tr *trace.Trace, keep func(program.ProcID) bool) *graph.Graph {
	return build(tr, keep)
}

// build counts the transitions between consecutive kept activations; a nil
// keep keeps every procedure.
func build(tr *trace.Trace, keep func(program.ProcID) bool) *graph.Graph {
	ids := 0
	for _, e := range tr.Events {
		ids = max(ids, int(e.Proc)+1)
	}
	rows := graph.NewRows(ids)
	prev := program.NoProc
	for _, e := range tr.Events {
		p := e.Proc
		if keep != nil && !keep(p) {
			continue
		}
		rows.Touch(graph.NodeID(p))
		if prev != program.NoProc && prev != p {
			rows.Add(graph.NodeID(prev), graph.NodeID(p), 1)
		}
		prev = p
	}
	return rows.Freeze()
}
