package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
)

// These differential tests pin the fast merge-loop paths (the indexed
// heaviest-edge heap behind graph.HeaviestEdge and the edge-driven
// alignment engines in align.go) to the retained naive implementations:
// an Edges()-scan edge selector and the bestAlignment/bestAlignmentAssoc
// oracles over rebuilt occupancy. Agreement must be exact — same merges,
// same offsets, same tuples, same final layout — across randomized
// programs and TRGs for every algorithm variant.

// scanHeaviest re-derives the heaviest edge with the (W desc, U asc, V asc)
// tie-break from the sorted edge list, independently of both the heap
// selector and the adjacency-scan oracle inside package graph.
func scanHeaviest(g *graph.Graph) (graph.Edge, bool) {
	var best graph.Edge
	found := false
	for _, e := range g.Edges() {
		if !found || e.W > best.W {
			best, found = e, true
		}
	}
	return best, found
}

// oracleAssign replays the original merge loop: linear-scan edge selection
// plus a naive alignment scorer, with no incremental state.
func oracleAssign(prog *program.Program, res *trg.Result, pop *popular.Set, period int, align func(n1, n2 *node) int) []place.Placed {
	if pop == nil {
		pop = popular.All(prog)
	}
	working := res.Select.Clone()
	nodes := make(map[graph.NodeID]*node)
	for _, p := range pop.IDs {
		working.AddNode(graph.NodeID(p))
		nodes[graph.NodeID(p)] = newNode(p)
	}
	for {
		e, ok := scanHeaviest(working)
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		off := align(n1, n2)
		n2.shift(off, period)
		n1.absorb(n2)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)
	}
	var items []place.Placed
	for _, id := range working.Nodes() {
		items = append(items, nodes[id].procs...)
	}
	return items
}

// randomScenario builds a random program, trace and popular set. Sizes and
// trace shapes cover single-line, multi-line and larger-than-cache
// procedures, partial-extent events, and both full and trimmed popularity.
func randomScenario(rng *rand.Rand) (*program.Program, *trace.Trace, *popular.Set) {
	n := rng.Intn(10) + 3
	procs := make([]program.Procedure, n)
	for i := range procs {
		procs[i] = program.Procedure{
			Name: fmt.Sprintf("p%d", i),
			Size: rng.Intn(580) + 20,
		}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	events := rng.Intn(300) + 100
	for i := 0; i < events; i++ {
		p := program.ProcID(rng.Intn(n))
		ev := trace.Event{Proc: p}
		if rng.Intn(4) == 0 {
			ev.Extent = int32(rng.Intn(prog.Size(p)) + 1)
		}
		tr.Append(ev)
	}
	var pop *popular.Set
	if rng.Intn(2) == 0 {
		pop = popular.Select(prog, tr, popular.Options{Coverage: 0.8, MinCount: 2})
		if pop.Len() == 0 {
			pop = popular.All(prog)
		}
	} else {
		pop = popular.All(prog)
	}
	return prog, tr, pop
}

func layoutsEqual(t *testing.T, seed int64, variant string, got, want *program.Layout, prog *program.Program) {
	t.Helper()
	for p := 0; p < prog.NumProcs(); p++ {
		if got.Addr(program.ProcID(p)) != want.Addr(program.ProcID(p)) {
			t.Fatalf("seed %d %s: proc %d at addr %d, oracle %d",
				seed, variant, p, got.Addr(program.ProcID(p)), want.Addr(program.ProcID(p)))
		}
	}
}

func itemsEqual(t *testing.T, seed int64, variant string, got, want []place.Placed) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d %s: %d tuples, oracle %d", seed, variant, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d %s: tuple %d = %+v, oracle %+v", seed, variant, i, got[i], want[i])
		}
	}
}

// TestDifferentialDirectMapped: Assign and Place against the oracle over
// 120 random seeds (direct-mapped Figure 4 scoring).
func TestDifferentialDirectMapped(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 256, LineBytes: 32, Assoc: 1},
		{SizeBytes: 512, LineBytes: 32, Assoc: 1},
	}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog, tr, pop := randomScenario(rng)
		cfg := cfgs[seed%2]
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumLines()
		align := func(n1, n2 *node) int {
			off, _ := bestAlignment(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
			return off
		}
		wantItems := oracleAssign(prog, res, pop, period, align)

		gotItems, err := Assign(prog, res, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: Assign: %v", seed, err)
		}
		itemsEqual(t, seed, "Assign", gotItems, wantItems)

		got, err := Place(prog, res, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: Place: %v", seed, err)
		}
		want, err := place.Linearize(prog, wantItems, pop.Unpopular(prog), cfg, period)
		if err != nil {
			t.Fatalf("seed %d: oracle linearize: %v", seed, err)
		}
		layoutsEqual(t, seed, "Place", got, want, prog)
	}
}

// TestDifferentialPageAware: the page-locality linearization consumes the
// same assignment tuples, so it must match the oracle end to end too.
func TestDifferentialPageAware(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		prog, tr, pop := randomScenario(rng)
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumLines()
		align := func(n1, n2 *node) int {
			off, _ := bestAlignment(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
			return off
		}
		wantItems := oracleAssign(prog, res, pop, period, align)

		got, err := PlacePageAware(prog, res, pop, cfg)
		if err != nil {
			t.Fatalf("seed %d: PlacePageAware: %v", seed, err)
		}
		want, err := place.LinearizePageAware(prog, wantItems, pop.Unpopular(prog), cfg, period, res.Select, 4)
		if err != nil {
			t.Fatalf("seed %d: oracle page-aware linearize: %v", seed, err)
		}
		layoutsEqual(t, seed, "PlacePageAware", got, want, prog)
	}
}

// checkAssocEngine runs the merge loop with the set-associative engine and,
// at every merge, compares the engine's full cost vector and chosen offset
// with the oracle's on the same node states. Edges are selected by the
// scan oracle, so the returned tuples are the oracle run's.
func checkAssocEngine(tb testing.TB, label string, prog *program.Program, res *trg.Result, db *trg.PairDB, pop *popular.Set, cfg cache.Config) []place.Placed {
	tb.Helper()
	period := cfg.NumSets()
	eng := newAssocEngine(prog, db, res.Chunker, cfg.LineBytes, period)
	working, nodes, err := initAssign(res.Select, pop, eng)
	if err != nil {
		tb.Fatalf("%s: %v", label, err)
	}
	for step := 0; ; step++ {
		e, ok := scanHeaviest(working)
		if !ok {
			break
		}
		n1, n2 := nodes[e.U], nodes[e.V]
		want := assocCosts(n1, n2, db, res.Chunker, prog, cfg.LineBytes, period)
		eng.scoreOffsets(e.U, e.V)
		if !slices.Equal(eng.costs, want) {
			tb.Fatalf("%s step %d: engine costs %v, oracle %v", label, step, eng.costs, want)
		}
		off := eng.bestOffset(e.U, e.V)
		if wantOff := firstMin(want); off != wantOff {
			tb.Fatalf("%s step %d: engine offset %d, oracle %d", label, step, off, wantOff)
		}
		n2.shift(off, period)
		n1.absorb(n2)
		eng.merged(e.U, e.V, off)
		working.MergeNodes(e.U, e.V)
		delete(nodes, e.V)
	}
	return gatherItems(working, nodes, pop)
}

// assocGrid is the geometry spread of the set-associative differential
// tests: 2- and 4-way caches of 4, 16 and 128 sets with 32-byte lines.
func assocGrid() []cache.Config {
	var cfgs []cache.Config
	for _, assoc := range []int{2, 4} {
		for _, sets := range []int{4, 16, 128} {
			cfgs = append(cfgs, cache.Config{SizeBytes: sets * assoc * 32, LineBytes: 32, Assoc: assoc})
		}
	}
	return cfgs
}

// TestDifferentialAssoc: the set-associative engine against the
// bestAlignmentAssoc oracle over the pair database, cost vector by cost
// vector at every merge and end to end, over 108 seeds covering every
// geometry of assocGrid with 32- and 256-byte chunks and chunks as large
// as the largest procedure. The small caches hold fewer sets than the
// larger procedures have lines, so procedures larger than the cache and
// chunk runs that wrap the period are both covered.
func TestDifferentialAssoc(t *testing.T) {
	cfgs := assocGrid()
	for seed := int64(0); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		prog, tr, pop := randomScenario(rng)
		cfg := cfgs[seed%int64(len(cfgs))]
		chunk := []int{32, 256, 0}[seed/int64(len(cfgs))%3]
		if chunk == 0 {
			for p := 0; p < prog.NumProcs(); p++ {
				chunk = max(chunk, prog.Size(program.ProcID(p)))
			}
		}
		label := fmt.Sprintf("seed %d (%d-way, %d sets, chunk %d)", seed, cfg.Assoc, cfg.NumSets(), chunk)
		res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: chunk, Popular: pop})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wantItems := checkAssocEngine(t, label, prog, res, db, pop, cfg)
		got, err := PlaceAssoc(prog, res, db, pop, cfg)
		if err != nil {
			t.Fatalf("%s: PlaceAssoc: %v", label, err)
		}
		want, err := place.Linearize(prog, wantItems, pop.Unpopular(prog), cfg, cfg.NumSets())
		if err != nil {
			t.Fatalf("%s: oracle linearize: %v", label, err)
		}
		layoutsEqual(t, seed, "PlaceAssoc", got, want, prog)
	}
}

// TestDifferentialAssocHandFilledDB drives the engine with pair databases
// filled through Add rather than from a trace: random counts that include
// D(p,{p,s}) entries, blocks past the chunker's range and chunks of
// unpopular procedures, none of which the oracle ever charges.
func TestDifferentialAssocHandFilledDB(t *testing.T) {
	cfgs := assocGrid()
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		prog, tr, pop := randomScenario(rng)
		cfg := cfgs[seed%int64(len(cfgs))]
		chunk := []int{32, 256}[seed%2]
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: chunk, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ids := res.Chunker.NumChunks() + 8
		db, err := trg.NewPairDB(ids, func(id trg.BlockID) bool { return id%7 != 3 })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			p := trg.BlockID(rng.Intn(ids))
			r, s := p, trg.BlockID(rng.Intn(ids))
			if rng.Intn(3) != 0 {
				r = trg.BlockID(rng.Intn(ids))
			}
			for n := rng.Intn(3) + 1; n > 0; n-- {
				_ = db.Add(p, r, s) // pairs with an untracked block are refused
			}
		}
		label := fmt.Sprintf("seed %d (%d-way, %d sets, chunk %d)", seed, cfg.Assoc, cfg.NumSets(), chunk)
		checkAssocEngine(t, label, prog, res, db, pop, cfg)
	}
}

// TestAssocEngineSearchAllocatesNothing: an alignment search reuses the
// engine's buffers, so after the first it allocates nothing.
func TestAssocEngineSearchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prog, tr, pop := randomScenario(rng)
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	res, db, err := trg.BuildPairs(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
	if err != nil {
		t.Fatal(err)
	}
	search, err := NewAlignmentAssocBench(prog, res, db, pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { search() }); n != 0 {
		t.Errorf("bestOffset allocates %.1f times per search", n)
	}
}

// TestDirectEngineMatchesOracleScorer compares the edge-driven scorer and
// the naive scorer on identical node states merge by merge, rather than
// only end to end: every chosen offset must agree at every step.
func TestDirectEngineMatchesOracleScorer(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		prog, tr, pop := randomScenario(rng)
		res, err := trg.Build(prog, tr, trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: 32, Popular: pop})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		period := cfg.NumLines()
		eng := newDirectEngine(prog, res.Place, res.Chunker, cfg.LineBytes, period)

		working := res.Select.Clone()
		nodes := make(map[graph.NodeID]*node)
		for _, p := range pop.IDs {
			working.AddNode(graph.NodeID(p))
			nodes[graph.NodeID(p)] = newNode(p)
			eng.addNode(graph.NodeID(p), p)
		}
		skip := false
		for _, id := range working.Nodes() {
			if _, ok := nodes[id]; !ok {
				skip = true // mismatched popular mask; assign would error
			}
		}
		if skip {
			continue
		}
		for step := 0; ; step++ {
			e, ok := scanHeaviest(working)
			if !ok {
				break
			}
			n1, n2 := nodes[e.U], nodes[e.V]
			wantOff, _ := bestAlignment(n1, n2, res.Place, res.Chunker, prog, cfg.LineBytes, period)
			gotOff := eng.bestOffset(e.U, e.V)
			if gotOff != wantOff {
				t.Fatalf("seed %d step %d: engine offset %d, oracle %d", seed, step, gotOff, wantOff)
			}
			n2.shift(gotOff, period)
			n1.absorb(n2)
			eng.merged(e.U, e.V, gotOff)
			working.MergeNodes(e.U, e.V)
			delete(nodes, e.V)

			// The engine's incremental occupancy must mirror a rebuild of
			// the merged node at every step.
			rebuilt := occupancy(n1, res.Chunker, prog, cfg.LineBytes, period)
			var rebuiltEntries, engineEntries int
			for _, cs := range rebuilt {
				rebuiltEntries += len(cs)
			}
			for _, c := range eng.nodeChunks[e.U] {
				engineEntries += len(eng.chunkLines[c])
			}
			if rebuiltEntries != engineEntries {
				t.Fatalf("seed %d step %d: engine occupancy has %d entries, rebuild %d",
					seed, step, engineEntries, rebuiltEntries)
			}
		}
	}
}
