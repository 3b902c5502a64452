package trg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// Direct unit tests for Builder.Warm, which until now was exercised only
// through the sharded-build warm-up paths: warming a prefix must leave
// both queues in exactly the state observing it would, while recording
// nothing, and it must compose with resetQueues the way the shard workers
// rely on.

func queueState(q *denseQueue) ([]BlockID, int) { return q.blocks(), q.TotalSize() }

// Warming a prefix leaves qSel/qPlace byte-equal to observing the same
// prefix, with no graphs, events, or stats recorded.
func TestWarmMatchesObserveQueueState(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		prog, tr, opts := deltaScenario(t, 200+seed)
		warm, err := NewBuilder(prog, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := NewBuilder(prog, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events {
			warm.Warm(e)
			obs.Observe(e)
		}
		wb, ws := queueState(warm.qSel)
		ob, os := queueState(obs.qSel)
		if !slices.Equal(wb, ob) || ws != os {
			t.Fatalf("seed %d: warmed qSel %v/%d, observed %v/%d", seed, wb, ws, ob, os)
		}
		wb, ws = queueState(warm.qPlace)
		ob, os = queueState(obs.qPlace)
		if !slices.Equal(wb, ob) || ws != os {
			t.Fatalf("seed %d: warmed qPlace %v/%d, observed %v/%d", seed, wb, ws, ob, os)
		}
		if warm.Events() != 0 {
			t.Fatalf("seed %d: Warm recorded %d events", seed, warm.Events())
		}
		res := warm.Result()
		if res.Select.NumNodes() != 0 || res.Place.NumNodes() != 0 || res.AvgQProcs != 0 {
			t.Fatalf("seed %d: Warm recorded graph/stat state: %d/%d nodes, avgQ %v",
				seed, res.Select.NumNodes(), res.Place.NumNodes(), res.AvgQProcs)
		}
		st := warm.BuildStats()
		if st.Events != 0 || st.QSteps != 0 || st.QLenSum != 0 || st.MaxQLen != 0 {
			t.Fatalf("seed %d: Warm recorded build stats %+v", seed, st)
		}
	}
}

// Warm must apply the same popularity filter as Observe: unpopular
// activations leave the queues untouched.
func TestWarmRespectsPopularFilter(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100}, {Name: "b", Size: 100}, {Name: "c", Size: 100},
	})
	// Procedures a and b dominate a selection trace; c stays unpopular.
	sel := &trace.Trace{}
	for i := 0; i < 10; i++ {
		sel.Append(trace.Event{Proc: 0})
		sel.Append(trace.Event{Proc: 1})
	}
	sel.Append(trace.Event{Proc: 2})
	pop := popular.Select(prog, sel, popular.Options{Coverage: 0.9, MinCount: 2})
	if pop.Contains(2) || !pop.Contains(0) || !pop.Contains(1) {
		t.Fatalf("unexpected popular set %v", pop.IDs)
	}
	b, err := NewBuilder(prog, Options{CacheBytes: 512, ChunkSize: 128, Popular: pop}, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Warm(trace.Event{Proc: 2}) // unpopular
	if b.qSel.Len() != 0 || b.qPlace.Len() != 0 {
		t.Fatalf("unpopular Warm touched queues: sel %d place %d", b.qSel.Len(), b.qPlace.Len())
	}
	b.Warm(trace.Event{Proc: 0})
	if b.qSel.Len() != 1 {
		t.Fatalf("popular Warm did not enter qSel: len %d", b.qSel.Len())
	}
}

// Warm-then-observe: an observation after a warmed prefix records edges
// to the procedures the warm-up left in Q — the cross-boundary
// attribution the sharded builder depends on.
func TestWarmThenObserveCrossBoundaryEdges(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100}, {Name: "b", Size: 100}, {Name: "c", Size: 100},
	})
	b, err := NewBuilder(prog, Options{CacheBytes: 512, ChunkSize: 256}, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Warm(trace.Event{Proc: 0})
	b.Warm(trace.Event{Proc: 1})
	// Re-activating a across the warm boundary: the warmed prior entry of
	// a is found in Q with b interleaved after it, so the observation
	// records the (a,b) edge even though both activations that bracket it
	// were fed through different entry points.
	b.Observe(trace.Event{Proc: 0})
	res := b.Result()
	if w := res.Select.Weight(0, 1); w != 1 {
		t.Errorf("select weight(a,b) = %d, want 1 (cross-boundary interleaving)", w)
	}
	if n := res.Select.NumEdges(); n != 1 {
		t.Errorf("select edges = %d, want 1", n)
	}
	if b.Events() != 1 {
		t.Errorf("events = %d, want 1 (warm events uncounted)", b.Events())
	}
}

// resetQueues discards warmed Q state without touching graphs or stats —
// a worker reuses one builder across shards, re-warming per shard.
func TestWarmResetQueuesInteraction(t *testing.T) {
	prog := program.MustNew([]program.Procedure{
		{Name: "a", Size: 100}, {Name: "b", Size: 100}, {Name: "c", Size: 100},
	})
	b, err := NewBuilder(prog, Options{CacheBytes: 512, ChunkSize: 256}, false)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(trace.Event{Proc: 0})
	b.Observe(trace.Event{Proc: 1})
	b.Observe(trace.Event{Proc: 0}) // re-activation records edge (a,b)
	st := b.BuildStats()

	b.resetQueues(nil, nil)
	if b.qSel.Len() != 0 || b.qPlace.Len() != 0 {
		t.Fatalf("resetQueues(nil,nil) left residents: sel %d place %d", b.qSel.Len(), b.qPlace.Len())
	}
	if b.BuildStats() != st {
		t.Fatalf("resetQueues changed stats: %+v vs %+v", b.BuildStats(), st)
	}
	if w := b.Result().Select.Weight(0, 1); w != 1 {
		t.Fatalf("resetQueues changed graphs: weight(a,b) = %d", w)
	}
	// Without the reset, re-activating b would find a in Q and bump the
	// (a,b) edge; after the reset the Q is empty, so nothing is recorded.
	b.Observe(trace.Event{Proc: 1})
	if w := b.Result().Select.Weight(0, 1); w != 1 {
		t.Fatalf("observation after reset saw stale Q state: weight(a,b) = %d", w)
	}

	// Warming after a reset re-seeds the Q exactly as seeding the reset
	// with a cloned queue snapshot would.
	seeded, err := NewBuilder(prog, Options{CacheBytes: 512, ChunkSize: 256}, false)
	if err != nil {
		t.Fatal(err)
	}
	seeded.Observe(trace.Event{Proc: 0})
	b.resetQueues(seeded.qSel.clone(), seeded.qPlace.clone())
	viaClone, sizeClone := queueState(b.qSel)

	b.resetQueues(nil, nil)
	b.Warm(trace.Event{Proc: 0})
	viaWarm, sizeWarm := queueState(b.qSel)
	if !slices.Equal(viaClone, viaWarm) || sizeClone != sizeWarm {
		t.Fatalf("warm after reset %v/%d differs from seeded clone %v/%d",
			viaWarm, sizeWarm, viaClone, sizeClone)
	}
}

// Property: warming a random prefix then observing the suffix yields the
// same graphs as seeding a fresh builder's queues with a clone of the Q
// state after observing the prefix — the equivalence the shard coordinator
// is built on.
func TestWarmPrefixEquivalentToQueueSeeding(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prog, tr, opts := deltaScenario(t, 300+seed)
		rng := rand.New(rand.NewSource(seed))
		cut := rng.Intn(len(tr.Events))

		warm, err := NewBuilder(prog, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events[:cut] {
			warm.Warm(e)
		}
		for _, e := range tr.Events[cut:] {
			warm.Observe(e)
		}

		full, err := NewBuilder(prog, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events[:cut] {
			full.Observe(e)
		}
		seeded, err := NewBuilder(prog, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		seeded.resetQueues(full.qSel.clone(), full.qPlace.clone())
		for _, e := range tr.Events[cut:] {
			seeded.Observe(e)
		}

		a, b := warm.Result(), seeded.Result()
		ae, be := a.Select.Edges(), b.Select.Edges()
		if !slices.Equal(ae, be) {
			t.Fatalf("seed %d cut %d: select graphs differ (%d vs %d edges)", seed, cut, len(ae), len(be))
		}
		ap, bp := a.Place.Edges(), b.Place.Edges()
		if !slices.Equal(ap, bp) {
			t.Fatalf("seed %d cut %d: place graphs differ (%d vs %d edges)", seed, cut, len(ap), len(bp))
		}
	}
}
