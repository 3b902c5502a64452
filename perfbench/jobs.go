package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

// counts holds the work counts the layers report through their counting
// entry points. Every field repeats exactly for a given input.
type counts struct {
	events, decodeBytes, trgEvents       int64
	qLenSum, qSteps                      int64
	selectEdges, placeEdges, pairEntries int64
	merges, heapPops, stalePops          int64
	crossEdges, violations               int64
	dmEvents, lruEvents                  int64
	dmRefs, dmCollapsedRefs              int64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.decodeBytes += o.decodeBytes
	c.trgEvents += o.trgEvents
	c.qLenSum += o.qLenSum
	c.qSteps += o.qSteps
	c.selectEdges += o.selectEdges
	c.placeEdges += o.placeEdges
	c.pairEntries += o.pairEntries
	c.merges += o.merges
	c.heapPops += o.heapPops
	c.stalePops += o.stalePops
	c.crossEdges += o.crossEdges
	c.violations += o.violations
	c.dmEvents += o.dmEvents
	c.lruEvents += o.lruEvents
	c.dmRefs += o.dmRefs
	c.dmCollapsedRefs += o.dmCollapsedRefs
}

// placeJob is one cmd/layout run: decode and validate the training trace,
// place it with alg, check the layout with the claims cmd/layout makes for
// alg, and encode it. Each layer call is a span under parent. corrupt
// breaks the placed layout before the check, to prove the check fires.
func placeJob(t *tracer, parent, job int, in *benchInput, alg string, c *counts, corrupt bool) (*program.Layout, []byte, error) {
	var tr *trace.Trace
	var err error
	t.do("trace.decode", parent, job, func() {
		if tr, err = trace.ReadBinary(bytes.NewReader(in.trainBytes)); err == nil {
			err = tr.Validate(in.prog)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	c.events += int64(tr.Len())
	c.decodeBytes += int64(len(in.trainBytes))

	prog := in.prog
	cfg := dmConfig
	if alg == "gbsc2" {
		cfg = lruConfig
	}
	selectPopular := func() (pop *popular.Set) {
		t.do("popular.select", parent, job, func() { pop = popular.Select(prog, tr, popular.Options{}) })
		return pop
	}
	trgOpts := func(pop *popular.Set) trg.Options {
		return trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: chunkBytes, Popular: pop}
	}
	checkOpts := invariant.LayoutOptions{Cache: cfg}
	var l *program.Layout
	var g *graph.Graph
	switch alg {
	case "ph":
		t.do("wcg.build", parent, job, func() { g = wcg.Build(tr) })
		t.do("baseline.ph", parent, job, func() { l, err = baseline.PHLayout(prog, g) })
		checkOpts.RequirePacked = true
	case "hkc":
		pop := selectPopular()
		t.do("wcg.build", parent, job, func() { g = wcg.BuildFiltered(tr, pop.Contains) })
		t.do("baseline.hkc", parent, job, func() { l, err = baseline.HKC(prog, g, pop, cfg) })
		checkOpts.Popular = pop
	case "gbsc":
		pop := selectPopular()
		var res *trg.Result
		var bs trg.BuildStats
		t.do("trg.build", parent, job, func() { res, bs, err = trg.BuildWithStats(prog, tr, trgOpts(pop)) })
		if err != nil {
			return nil, nil, err
		}
		var m core.Metrics
		t.do("core.place", parent, job, func() { l, err = core.PlaceCounted(prog, res, pop, cfg, &m) })
		c.trgEvents += int64(tr.Len())
		c.qLenSum += bs.QLenSum
		c.qSteps += bs.QSteps
		c.selectEdges += int64(res.Select.NumEdges())
		c.placeEdges += int64(res.Place.NumEdges())
		c.merges += m.Merges
		c.heapPops += m.HeapPops
		c.stalePops += m.StalePops
		c.crossEdges += m.CrossEdges
		checkOpts.Popular = pop
		checkOpts.Chunker = res.Chunker
		checkOpts.RequireAlignedPopular = true
	case "gbsc2":
		pop := selectPopular()
		var res *trg.Result
		var db *trg.PairDB
		t.do("trg.build_pairs", parent, job, func() { res, db, err = trg.BuildPairs(prog, tr, trgOpts(pop)) })
		if err != nil {
			return nil, nil, err
		}
		t.do("core.place_assoc", parent, job, func() { l, err = core.PlaceAssoc(prog, res, db, pop, cfg) })
		c.selectEdges += int64(res.Select.NumEdges())
		c.placeEdges += int64(res.Place.NumEdges())
		c.pairEntries += int64(db.Len())
		checkOpts.Popular = pop
		checkOpts.Chunker = res.Chunker
		checkOpts.Period = cfg.NumSets()
		checkOpts.RequireAlignedPopular = true
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", alg)
	}
	if err != nil {
		return nil, nil, err
	}
	if corrupt {
		// Move the second procedure onto the first: an overlap.
		l.SetAddr(1, l.Addr(0))
	}

	var vs []invariant.Violation
	t.do("invariant.check", parent, job, func() {
		if err = l.Validate(); err == nil {
			vs = invariant.CheckLayout(prog, l, checkOpts)
		}
	})
	if err != nil {
		c.violations++
		return nil, nil, fmt.Errorf("invalid layout: %w", err)
	}
	c.violations += int64(len(vs))
	if len(vs) > 0 {
		return nil, nil, invariant.Error("layout/"+alg, vs)
	}

	var buf bytes.Buffer
	t.do("program.encode", parent, job, func() { err = l.WriteLayout(&buf) })
	if err != nil {
		return nil, nil, err
	}
	return l, buf.Bytes(), nil
}

// score is one layout's result on both geometries.
type score struct {
	dm, lru       cache.Stats
	dmDur, lruDur time.Duration
}

// scoreLayout replays in's compiled test trace placed by l on the
// direct-mapped and the two-way LRU simulator, timing each half.
func scoreLayout(t *tracer, parent, job int, in *benchInput, l *program.Layout, c *counts) score {
	var s score
	var replay cache.ReplayStats
	start := time.Now()
	t.do("cache.replay_dm", parent, job, func() {
		s.dm = in.dm.RunCompiled(in.ct, l)
		replay = in.dm.Replay()
	})
	mid := time.Now()
	t.do("cache.replay_lru", parent, job, func() { s.lru = in.lru.RunCompiled(in.ct, l) })
	s.dmDur, s.lruDur = mid.Sub(start), time.Since(mid)
	events := int64(in.test.Len())
	c.dmEvents += events
	c.lruEvents += events
	c.dmRefs += s.dm.Refs
	c.dmCollapsedRefs += replay.CollapsedRefs
	return s
}
