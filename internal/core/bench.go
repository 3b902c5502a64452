package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trg"
)

// Benchmark seams: the alignment scorers are unexported engine methods, so
// the repo-root bench_test.go micro-benchmarks reach them through these
// constructors. Each replays the merge loop halfway (so both nodes of the
// next merge carry realistic multi-procedure occupancy), freezes the
// engine state, and returns a closure running that single — largest —
// alignment search per call. This package is internal; the exported names
// add no public API surface.

// NewAlignmentBench prepares one direct-mapped Figure 4 alignment search
// over the fast edge-driven engine for benchmarking.
func NewAlignmentBench(prog *program.Program, res *trg.Result, pop *popular.Set, cfg cache.Config) (func() int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	period := cfg.NumLines()
	eng := newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period)
	return benchSearch(prog, res, pop, period, eng)
}

// NewAlignmentAssocBench prepares one Section 6 set-associative alignment
// search over the edge-driven assoc engine for benchmarking.
func NewAlignmentAssocBench(prog *program.Program, res *trg.Result, db *trg.PairDB, pop *popular.Set, cfg cache.Config) (func() int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Assoc < 2 {
		return nil, fmt.Errorf("core: NewAlignmentAssocBench requires associativity >= 2, got %d", cfg.Assoc)
	}
	if db == nil {
		return nil, fmt.Errorf("core: NewAlignmentAssocBench requires a pair database")
	}
	period := cfg.NumSets()
	eng := newAssocEngine(prog, db, res.Chunker, cfg.LineBytes, period)
	return benchSearch(prog, res, pop, period, eng)
}

// benchSearch replays merges until half the popular nodes remain, then
// returns a closure that repeats the next alignment search without merging.
func benchSearch(prog *program.Program, res *trg.Result, pop *popular.Set, period int, eng alignEngine) (func() int, error) {
	if pop == nil {
		pop = popular.All(prog)
	}
	working := res.Select.Clone()
	nodes := make(map[graph.NodeID]*node, len(pop.IDs))
	for _, p := range pop.IDs {
		working.AddNode(graph.NodeID(p))
		nodes[graph.NodeID(p)] = newNode(p)
		eng.addNode(graph.NodeID(p), p)
	}
	for working.NumNodes() > len(pop.IDs)/2 {
		e, ok := working.HeaviestEdge()
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		off := eng.bestOffset(e.U, e.V)
		n2.shift(off, period)
		n1.absorb(n2)
		eng.merged(e.U, e.V, off)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)
	}
	e, ok := working.HeaviestEdge()
	if !ok {
		return nil, fmt.Errorf("core: benchmark merge state ran out of edges")
	}
	return func() int { return eng.bestOffset(e.U, e.V) }, nil
}
