package trg

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/wcg"
)

// The worked example of the paper's Figures 1–3: a main procedure M calls X
// or Y depending on a condition, then always Z, for 80 iterations. Trace #1
// alternates the condition; trace #2 runs 40 true then 40 false. Both yield
// the same WCG, but only trace #1 interleaves X with Y — information the TRG
// captures and the WCG cannot.

func figureProgram(t *testing.T) *program.Program {
	t.Helper()
	// Single-cache-line procedures, as the example assumes.
	return program.MustNew([]program.Procedure{
		{Name: "M", Size: 32},
		{Name: "X", Size: 32},
		{Name: "Y", Size: 32},
		{Name: "Z", Size: 32},
	})
}

func figureTraces(t *testing.T, prog *program.Program) (t1, t2 *trace.Trace) {
	t.Helper()
	t1, t2 = &trace.Trace{}, &trace.Trace{}
	m, _ := prog.Lookup("M")
	x, _ := prog.Lookup("X")
	y, _ := prog.Lookup("Y")
	z, _ := prog.Lookup("Z")
	appendIter := func(tr *trace.Trace, leaf program.ProcID) {
		// M calls leaf, returns to M, calls Z, returns to M.
		tr.Append(trace.Event{Proc: m})
		tr.Append(trace.Event{Proc: leaf})
		tr.Append(trace.Event{Proc: m})
		tr.Append(trace.Event{Proc: z})
	}
	for i := 0; i < 80; i++ {
		if i%2 == 0 {
			appendIter(t1, x)
		} else {
			appendIter(t1, y)
		}
	}
	for i := 0; i < 40; i++ {
		appendIter(t2, x)
	}
	for i := 0; i < 40; i++ {
		appendIter(t2, y)
	}
	return t1, t2
}

func TestFigure1TracesProduceSameWCG(t *testing.T) {
	prog := figureProgram(t)
	t1, t2 := figureTraces(t, prog)
	g1, g2 := wcg.Build(t1), wcg.Build(t2)
	for _, pair := range [][2]string{{"M", "X"}, {"M", "Y"}, {"M", "Z"}, {"X", "Y"}, {"X", "Z"}, {"Y", "Z"}} {
		a, _ := prog.Lookup(pair[0])
		b, _ := prog.Lookup(pair[1])
		w1 := g1.Weight(graph.NodeID(a), graph.NodeID(b))
		w2 := g2.Weight(graph.NodeID(a), graph.NodeID(b))
		if w1 != w2 {
			t.Errorf("WCG weight %s-%s differs between traces: %d vs %d", pair[0], pair[1], w1, w2)
		}
	}
	// Transition counts: M↔X 80 (40 calls + 40 returns), M↔Y 80, M↔Z 160.
	m, _ := prog.Lookup("M")
	x, _ := prog.Lookup("X")
	z, _ := prog.Lookup("Z")
	if w := g1.Weight(graph.NodeID(m), graph.NodeID(x)); w != 80 {
		t.Errorf("W(M,X) = %d, want 80", w)
	}
	// Z→M transitions are 79+80: the trace ends at Z with no final return
	// event; each Z is preceded by an M (80 M→Z) and followed by one except
	// the last (79 Z→M).
	if w := g1.Weight(graph.NodeID(m), graph.NodeID(z)); w != 159 {
		t.Errorf("W(M,Z) = %d, want 159", w)
	}
}

func TestFigure2TRGDistinguishesTraces(t *testing.T) {
	prog := figureProgram(t)
	t1, t2 := figureTraces(t, prog)
	opts := Options{CacheBytes: 8192, QFactor: 2} // plenty of room in Q

	res1, err := Build(prog, t1, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Build(prog, t2, opts)
	if err != nil {
		t.Fatal(err)
	}

	x, _ := prog.Lookup("X")
	y, _ := prog.Lookup("Y")
	z, _ := prog.Lookup("Z")

	// Trace #1 alternates X and Y: they interleave, so the TRG must have an
	// (X,Y) edge. Trace #2 never interleaves them: no edge, exactly as in
	// Figure 2.
	if w := res1.Select.Weight(graph.NodeID(x), graph.NodeID(y)); w == 0 {
		t.Error("trace #1 TRG missing (X,Y) edge")
	}
	if w := res2.Select.Weight(graph.NodeID(x), graph.NodeID(y)); w != 0 {
		t.Errorf("trace #2 TRG has spurious (X,Y) edge of weight %d", w)
	}

	// Figure 2: the (X,Z) and (Y,Z) sibling edges exist in trace #2's TRG
	// even though the WCG has no X-Z or Y-Z edge at all.
	if res2.Select.Weight(graph.NodeID(x), graph.NodeID(z)) == 0 {
		t.Error("trace #2 TRG missing (X,Z) edge")
	}
	if res2.Select.Weight(graph.NodeID(y), graph.NodeID(z)) == 0 {
		t.Error("trace #2 TRG missing (Y,Z) edge")
	}
	g2 := wcg.Build(t2)
	if g2.Weight(graph.NodeID(x), graph.NodeID(z)) != 0 {
		t.Error("WCG unexpectedly has (X,Z) edge")
	}
}

func TestFigure2WeightsNearlyDoubleWCG(t *testing.T) {
	// "All of the edges from the WCG still remain, except that their
	// weights are nearly doubled" — relative to a call-count WCG (half our
	// transition-count weights).
	prog := figureProgram(t)
	_, t2 := figureTraces(t, prog)
	res, err := Build(prog, t2, Options{CacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Lookup("M")
	x, _ := prog.Lookup("X")
	wTRG := res.Select.Weight(graph.NodeID(m), graph.NodeID(x))
	callCount := int64(40) // M calls X 40 times in trace #2
	if wTRG < 2*callCount-4 || wTRG > 2*callCount {
		t.Errorf("W_TRG(M,X) = %d, want nearly 2x call count %d", wTRG, callCount)
	}
}

func TestFigure3QProcessingSteps(t *testing.T) {
	// Figure 3 walks Q through the prefix M X M Z of trace #2.
	prog := figureProgram(t)
	m, _ := prog.Lookup("M")
	x, _ := prog.Lookup("X")
	z, _ := prog.Lookup("Z")
	q := newDenseQueue(2*8192, prog.NumProcs())

	inc := map[[2]BlockID]int{}
	touch := func(p program.ProcID) {
		touchQ(q, BlockID(p), prog.Size(p), func(b BlockID) {
			key := [2]BlockID{BlockID(p), b}
			inc[key]++
		})
	}

	touch(m) // Q = [M]
	touch(x) // Q = [M, X]
	// (a) processing M increments W(M,X): X occurs between M and its
	// previous occurrence.
	touch(m)
	if inc[[2]BlockID{BlockID(m), BlockID(x)}] != 1 {
		t.Errorf("step (a): W(M,X) increments = %d, want 1", inc[[2]BlockID{BlockID(m), BlockID(x)}])
	}
	// (b) processing Z adds no edges: no previous occurrence of Z.
	before := len(inc)
	touch(z)
	if len(inc) != before {
		t.Error("step (b): processing first Z modified the TRG")
	}
	// (c) Q now contains X, M, Z (total below 2x cache size).
	want := []BlockID{BlockID(x), BlockID(m), BlockID(z)}
	got := q.blocks()
	if len(got) != len(want) {
		t.Fatalf("Q = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Q = %v, want %v", got, want)
		}
	}
	// (d) processing M increments W(M,Z); then processing X would increment
	// W(X,Z) and W(X,M).
	touch(m)
	if inc[[2]BlockID{BlockID(m), BlockID(z)}] != 1 {
		t.Error("step (d): W(M,Z) not incremented")
	}
	touch(x)
	if inc[[2]BlockID{BlockID(x), BlockID(z)}] != 1 || inc[[2]BlockID{BlockID(x), BlockID(m)}] != 1 {
		t.Error("step (d): W(X,Z)/W(X,M) not incremented")
	}
}
