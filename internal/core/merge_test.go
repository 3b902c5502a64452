package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/program"
	"repro/internal/trg"
)

func mergeProg(t *testing.T) (*program.Program, *program.Chunker) {
	t.Helper()
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 64}, // 2 lines
		{Name: "q", Size: 64}, // 2 lines
		{Name: "r", Size: 32}, // 1 line
	})
	return prog, program.MustNewChunker(prog, 32) // chunk == line
}

func TestOccupancy(t *testing.T) {
	prog, ch := mergeProg(t)
	n := &node{procs: []place.Placed{
		{Proc: 0, Line: 1}, // p on lines 1,2
		{Proc: 2, Line: 3}, // r on line 3
	}}
	occ := occupancy(n, ch, prog, 32, 4)
	if len(occ[0]) != 0 {
		t.Errorf("line 0 occupied: %v", occ[0])
	}
	if len(occ[1]) != 1 || occ[1][0] != ch.Chunk(0, 0) {
		t.Errorf("line 1 = %v", occ[1])
	}
	if len(occ[2]) != 1 || occ[2][0] != ch.Chunk(0, 1) {
		t.Errorf("line 2 = %v", occ[2])
	}
	if len(occ[3]) != 1 || occ[3][0] != ch.Chunk(2, 0) {
		t.Errorf("line 3 = %v", occ[3])
	}
}

func TestOccupancyWrapsAroundCache(t *testing.T) {
	prog, ch := mergeProg(t)
	n := &node{procs: []place.Placed{{Proc: 0, Line: 3}}} // p on lines 3,0 (wrap)
	occ := occupancy(n, ch, prog, 32, 4)
	if len(occ[3]) != 1 || len(occ[0]) != 1 {
		t.Errorf("wrap occupancy: %v", occ)
	}
}

func TestBestAlignmentAvoidsWeightedOverlap(t *testing.T) {
	prog, ch := mergeProg(t)
	g := graph.New()
	// Heavy conflict between p's first chunk and q's first chunk.
	g.AddEdgeWeight(graph.NodeID(ch.Chunk(0, 0)), graph.NodeID(ch.Chunk(1, 0)), 100)

	n1 := newNode(0) // p at line 0 (lines 0,1)
	n2 := newNode(1) // q at line 0
	off, cost := bestAlignment(n1, n2, g, ch, prog, 32, 8)
	// q's chunk 0 must avoid p's chunk 0 at line 0. Offsets 1..7 all cost
	// zero; the first minimum is offset 1.
	if cost != 0 {
		t.Errorf("cost = %d, want 0", cost)
	}
	if off != 1 {
		t.Errorf("offset = %d, want 1 (first zero-cost)", off)
	}
}

func TestBestAlignmentPrefersChainWhenAllConflict(t *testing.T) {
	prog, ch := mergeProg(t)
	g := graph.New()
	// Both chunks of p conflict with both chunks of q equally.
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			g.AddEdgeWeight(graph.NodeID(ch.Chunk(0, a)), graph.NodeID(ch.Chunk(1, b)), 10)
		}
	}
	n1 := newNode(0)
	n2 := newNode(1)
	off, cost := bestAlignment(n1, n2, g, ch, prog, 32, 8)
	// With 8 lines and 2-line procedures, offsets 2..6 are conflict-free;
	// the first minimum is 2, the PH-chain position.
	if off != 2 || cost != 0 {
		t.Errorf("off,cost = %d,%d, want 2,0", off, cost)
	}
}

func TestBestAlignmentCountsOverlapExtent(t *testing.T) {
	// In a 3-line cache, two 2-line procedures must overlap by at least
	// one line; the metric should charge exactly the overlapping chunk
	// pair(s) and pick an offset with single-line overlap.
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 64},
		{Name: "q", Size: 64},
	})
	ch := program.MustNewChunker(prog, 32)
	g := graph.New()
	g.AddEdgeWeight(graph.NodeID(ch.Chunk(0, 0)), graph.NodeID(ch.Chunk(1, 0)), 5)
	g.AddEdgeWeight(graph.NodeID(ch.Chunk(0, 0)), graph.NodeID(ch.Chunk(1, 1)), 5)
	g.AddEdgeWeight(graph.NodeID(ch.Chunk(0, 1)), graph.NodeID(ch.Chunk(1, 0)), 5)
	g.AddEdgeWeight(graph.NodeID(ch.Chunk(0, 1)), graph.NodeID(ch.Chunk(1, 1)), 5)
	n1, n2 := newNode(0), newNode(1)
	off, cost := bestAlignment(n1, n2, g, ch, prog, 32, 3)
	// Offset 0: both lines overlap → cost 10. Offsets 1 and 2: one line
	// overlaps → cost 5. First minimum is offset 1.
	if off != 1 || cost != 5 {
		t.Errorf("off,cost = %d,%d, want 1,5", off, cost)
	}
}

func TestNodeShiftWraps(t *testing.T) {
	n := &node{procs: []place.Placed{{Proc: 0, Line: 6}, {Proc: 1, Line: 1}}}
	n.shift(3, 8)
	if n.procs[0].Line != 1 || n.procs[1].Line != 4 {
		t.Errorf("after shift: %v", n.procs)
	}
	n.shift(-1, 8)
	if n.procs[0].Line != 0 || n.procs[1].Line != 3 {
		t.Errorf("after negative shift: %v", n.procs)
	}
}

func newPairDB(t *testing.T, ids int) *trg.PairDB {
	t.Helper()
	db, err := trg.NewPairDB(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func addPair(t *testing.T, db *trg.PairDB, p, r, s trg.BlockID) {
	t.Helper()
	if err := db.Add(p, r, s); err != nil {
		t.Fatal(err)
	}
}

func TestAssocSetCostChargesTriplesOnly(t *testing.T) {
	db := newPairDB(t, 32)
	// D(p, {r,s}) = 4: p misses when both r and s intervene.
	for i := 0; i < 4; i++ {
		addPair(t, db, 10, 20, 21)
	}

	own := []program.ChunkID{10}
	other := []program.ChunkID{20, 21}
	if got := assocSetCost(own, other, db); got != 4 {
		t.Errorf("cost = %d, want 4", got)
	}
	// Only one of the pair in the set: no charge.
	if got := assocSetCost(own, []program.ChunkID{20}, db); got != 0 {
		t.Errorf("single-intervener cost = %d, want 0", got)
	}
	// Mixed pair: r in own with p, s in other.
	db2 := newPairDB(t, 32)
	addPair(t, db2, 10, 11, 20)
	if got := assocSetCost([]program.ChunkID{10, 11}, []program.ChunkID{20}, db2); got != 1 {
		t.Errorf("mixed-pair cost = %d, want 1", got)
	}
}

func TestBestAlignmentAssocSeparatesToxicTriple(t *testing.T) {
	// Three single-chunk procedures; D says r and s together evict p.
	prog := program.MustNew([]program.Procedure{
		{Name: "p", Size: 32},
		{Name: "r", Size: 32},
		{Name: "s", Size: 32},
	})
	ch := program.MustNewChunker(prog, 32)
	db := newPairDB(t, ch.NumChunks())
	pc := trg.BlockID(ch.FirstChunk(0))
	rc := trg.BlockID(ch.FirstChunk(1))
	sc := trg.BlockID(ch.FirstChunk(2))
	addPair(t, db, pc, rc, sc)

	// Node 1 holds r and s in the same set (set 0); node 2 holds p.
	n1 := &node{procs: []place.Placed{{Proc: 1, Line: 0}, {Proc: 2, Line: 0}}}
	n2 := newNode(0)
	off, cost := bestAlignmentAssoc(n1, n2, db, ch, prog, 32, 4)
	if cost != 0 {
		t.Errorf("cost = %d, want 0", cost)
	}
	if off == 0 {
		t.Error("p placed into the set holding both r and s")
	}
}
