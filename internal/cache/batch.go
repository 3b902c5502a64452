package cache

import (
	"fmt"
	"math"

	"repro/internal/program"
)

// This file implements layout-batched compiled replay: one walk of a
// shared CompiledTrace scores K candidate layouts at once. Each lane is a
// full simulated cache state driven by the same replay kernel as Sim
// (kernel.go), so per-lane statistics are byte-identical to RunCompiled
// (hence to the reference-stream oracle), the class-residency memo and
// repeat collapse included. What batching adds is the loop nest: chunks
// of events outer, lanes inner, so each chunk of the compiled arrays is
// read from the fastest cache level by every lane, and each lane's
// per-class table is compiled once (CompileLayout) for any number of
// replays.
//
// Early abandonment rides on miss-count monotonicity: a lane's running
// miss count only grows as the walk proceeds, so once it exceeds a
// caller-supplied budget (e.g. an incumbent's final count) the lane's
// final count must exceed it too and the lane can retire mid-walk. The
// surviving lanes' statistics are unaffected — lanes share no simulated
// state.

// CompiledLayout is a layout compiled against a CompiledTrace's activation
// classes for one cache geometry: per class, the placed first line and
// set, the line span, and its first-touch slots in a compact numbering of
// the lines the layout occupies. One table serves every replay of the
// layout against any view — full trace or Slice — sharing the class table
// it was compiled from. Immutable after CompileLayout returns and safe
// for concurrent use; a layout edited after compilation needs a new table.
type CompiledLayout struct {
	layout  *program.Layout
	classes *classTable
	cfg     Config
	tab     []placed
	slots   int64 // first-touch slots the table numbers
}

// Layout returns the layout the table was compiled from.
func (cl *CompiledLayout) Layout() *program.Layout { return cl.layout }

// CompileLayout compiles layout against ct's activation classes for the
// given geometry — exactly the table Sim rebuilds on every call, hoisted
// out so a batch pays one table load per (event, lane). The layout must
// place the program ct was compiled against.
func CompileLayout(cfg Config, ct *CompiledTrace, layout *program.Layout) (*CompiledLayout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ct.checkProgram(layout)
	k := newKernel(cfg)
	var ix indexer
	var x lineIndex
	ix.reach(ct.classes, layout, k.lineBytes)
	ix.merge(&x)
	cl := &CompiledLayout{
		layout:  layout,
		classes: ct.classes,
		cfg:     cfg,
		tab:     make([]placed, len(ct.classes.proc)),
		slots:   x.slots(),
	}
	k.place(cl.tab, ct.classes, layout, &x)
	return cl, nil
}

// BatchOptions configures one batched run.
type BatchOptions struct {
	// Budgets, when non-empty, must have one entry per lane and enables
	// early abandonment: lane i retires as soon as its running miss count
	// exceeds Budgets[i]. Misses only accumulate, so a retired lane's
	// final count would also have exceeded the budget — callers comparing
	// candidates against an incumbent with M misses pass M-1 and lose no
	// viable candidate. A retired lane's Stats are the partial counts at
	// retirement and are flagged in BatchResult.Abandoned.
	Budgets []int64
}

// BatchStats counts one batched run's work for telemetry: lane volume,
// abandonment, and the lane-events actually walked versus saved (by
// abandonment retiring lanes before the walk ended). Deterministic for a
// given (trace, layouts, budgets), so counters built from it merge
// identically at any worker count.
type BatchStats struct {
	// Runs counts Run calls; Lanes the layouts scored across them.
	Runs  int64
	Lanes int64
	// AbandonedLanes counts lanes retired by a budget.
	AbandonedLanes int64
	// LaneEvents is the number of (event, lane) units actually walked;
	// LaneEventsSaved is how many the full walk would have added —
	// events × lanes minus LaneEvents.
	LaneEvents      int64
	LaneEventsSaved int64
}

// Add merges other into b.
func (b *BatchStats) Add(other BatchStats) {
	b.Runs += other.Runs
	b.Lanes += other.Lanes
	b.AbandonedLanes += other.AbandonedLanes
	b.LaneEvents += other.LaneEvents
	b.LaneEventsSaved += other.LaneEventsSaved
}

// BatchResult is the outcome of one batched run.
type BatchResult struct {
	// Stats[i] is lane i's simulation statistics — byte-identical to
	// RunCompiled of the same layout unless the lane was abandoned, in
	// which case it holds the partial counts at retirement (whose Misses
	// already exceed the lane's budget).
	Stats []Stats
	// Abandoned[i] reports whether lane i retired on its budget.
	Abandoned []bool
	// Batch is this run's work accounting.
	Batch BatchStats
}

// BatchSim replays one compiled trace against K layouts at once, one
// kernel lane per layout. The lanes' state lives in shared buffers that
// grow once and are reused across Bind/Run calls, so a search that scores
// thousands of candidates in batches allocates per batch only the result
// slices.
//
// A BatchSim is not safe for concurrent use; workers bring their own,
// exactly like Sim.
type BatchSim struct {
	cfg Config
	kernel

	// Current binding: K lanes over one class-table family.
	tabs    []*CompiledLayout
	classes *classTable
	lanes   []lane
	alive   []bool
	// Backing stores the lanes' state is carved from: lane i owns the
	// i-th sets×assoc ways, nblocks block versions and per-class
	// residency stamps, and tabs[i].slots first-touch stamps.
	ways, bver, res []int64
	seen            []uint32

	batch BatchStats
}

// NewBatchSim creates a batched simulator for the given configuration.
func NewBatchSim(cfg Config) (*BatchSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BatchSim{cfg: cfg, kernel: newKernel(cfg)}, nil
}

// MustNewBatchSim is NewBatchSim but panics on error.
func MustNewBatchSim(cfg Config) *BatchSim {
	bs, err := NewBatchSim(cfg)
	if err != nil {
		panic(err)
	}
	return bs
}

// Config returns the simulator's configuration.
func (bs *BatchSim) Config() Config { return bs.cfg }

// Batch returns the cumulative work counters across every run and replay
// since the simulator was created.
func (bs *BatchSim) Batch() BatchStats { return bs.batch }

// Bind attaches tables as the simulator's lanes and resets all simulated
// state. Every table must have been compiled for this configuration, and
// all against the same compilation family (the same CompileTrace call —
// Slices share their source's family).
func (bs *BatchSim) Bind(tables []*CompiledLayout) error {
	for i, t := range tables {
		if t.cfg != bs.cfg {
			return fmt.Errorf("cache: lane %d compiled for %+v, batch simulator is %+v", i, t.cfg, bs.cfg)
		}
		if i > 0 && t.classes != tables[0].classes {
			return fmt.Errorf("cache: lane %d compiled against a different trace compilation than lane 0", i)
		}
	}
	bs.tabs = append(bs.tabs[:0], tables...)
	bs.classes = nil
	nc := int64(0)
	if len(tables) > 0 {
		bs.classes = tables[0].classes
		nc = int64(len(bs.classes.proc))
	}
	k := int64(len(tables))
	nw := bs.sets * bs.assoc
	bs.ways = grow(bs.ways, k*nw)
	bs.bver = grow(bs.bver, k*bs.nblocks)
	// Reused residency stamps are older than the fresh block versions
	// Reset draws, so none can claim residency.
	bs.res = grow(bs.res, k*nc)
	var total int64
	for _, t := range tables {
		total += t.slots
	}
	// A fresh stamp store starts zeroed; a reused one relies on the epoch
	// bump in Reset to retire stale stamps, exactly like Sim.
	bs.seen = grow(bs.seen, total)
	bs.lanes = grow(bs.lanes, k)
	bs.alive = grow(bs.alive, k)
	var off int64
	for i, t := range tables {
		j := int64(i)
		bs.lanes[i] = lane{
			ways: bs.ways[j*nw : (j+1)*nw],
			bver: bs.bver[j*bs.nblocks : (j+1)*bs.nblocks],
			res:  bs.res[j*nc : (j+1)*nc],
			seen: bs.seen[off : off+t.slots],
		}
		off += t.slots
	}
	bs.Reset()
	return nil
}

// grow returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified until the caller
// initializes them.
func grow[T any](s []T, n int64) []T {
	if int64(cap(s)) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset clears every lane's simulated state and statistics, keeping the
// current binding. Like Sim.Reset it is O(tag state), not O(lines
// touched): the first-touch stamps are retired by an epoch bump.
func (bs *BatchSim) Reset() {
	for i := range bs.ways {
		bs.ways[i] = -1
	}
	for i := range bs.lanes {
		bs.lanes[i].stats = Stats{}
		bs.alive[i] = true
	}
	bs.invalidate(bs.bver)
	bs.newEpoch(bs.seen)
}

// Run binds tables, resets, and walks ct once for all lanes, applying
// opts.Budgets if given. The returned per-lane statistics are
// byte-identical to RunCompiled of each layout (abandoned lanes report
// their partial counts). One Run on K lanes replaces K serial replays.
func (bs *BatchSim) Run(ct *CompiledTrace, tables []*CompiledLayout, opts BatchOptions) (*BatchResult, error) {
	if len(opts.Budgets) != 0 && len(opts.Budgets) != len(tables) {
		return nil, fmt.Errorf("cache: %d budgets for %d lanes", len(opts.Budgets), len(tables))
	}
	if err := bs.Bind(tables); err != nil {
		return nil, err
	}
	before := bs.batch
	bs.batch.Runs++
	bs.batch.Lanes += int64(len(tables))
	bs.replay(ct, opts.Budgets)
	res := &BatchResult{
		Stats:     make([]Stats, len(tables)),
		Abandoned: make([]bool, len(tables)),
	}
	for i := range bs.lanes {
		res.Stats[i] = bs.lanes[i].stats
		if !bs.alive[i] {
			res.Abandoned[i] = true
			bs.batch.AbandonedLanes++
		}
	}
	d := bs.batch
	d.Runs -= before.Runs
	d.Lanes -= before.Lanes
	d.AbandonedLanes -= before.AbandonedLanes
	d.LaneEvents -= before.LaneEvents
	d.LaneEventsSaved -= before.LaneEventsSaved
	res.Batch = d
	return res, nil
}

// Replay walks ct for the currently bound lanes WITHOUT resetting first
// and returns each lane's statistics delta, mirroring Sim.ReplayCompiled:
// a sequence of Replay calls over consecutive Slices of one compilation
// is byte-identical per lane to a single Run over the whole trace. This
// is the windowed entry point of the sampled evaluation path, where one
// window walk scores several layouts. Budgets do not apply; lanes retired
// by an earlier Run stay retired.
func (bs *BatchSim) Replay(ct *CompiledTrace) ([]Stats, error) {
	if len(bs.tabs) > 0 && ct.classes != bs.classes {
		return nil, fmt.Errorf("cache: replayed trace is not from the bound compilation family")
	}
	deltas := make([]Stats, len(bs.lanes))
	for i := range bs.lanes {
		deltas[i] = bs.lanes[i].stats
	}
	bs.replay(ct, nil)
	for i := range deltas {
		st := bs.lanes[i].stats
		deltas[i] = Stats{
			Refs:   st.Refs - deltas[i].Refs,
			Misses: st.Misses - deltas[i].Misses,
			Cold:   st.Cold - deltas[i].Cold,
		}
	}
	return deltas, nil
}

// chunkEvents is the event-block size of the walk: lanes iterate inside a
// chunk, so one lane's table and state stay hot across the whole block
// while the block's trace arrays stay in the fastest cache level for
// every lane. Lanes share no simulated state, so the order cannot change
// any lane's statistics.
const chunkEvents = 4096

// replay walks ct for every live lane, chunk by chunk. budgets nil
// disables abandonment; otherwise a lane whose misses exceed its budget
// retires after the offending event, and the events it would still have
// walked count as saved.
func (bs *BatchSim) replay(ct *CompiledTrace, budgets []int64) {
	n := int64(ct.n)
	for i := range bs.lanes {
		if !bs.alive[i] {
			bs.batch.LaneEventsSaved += n
		}
	}
	for lo := 0; lo < ct.n; lo += chunkEvents {
		hi := min(lo+chunkEvents, ct.n)
		for i := range bs.lanes {
			if !bs.alive[i] {
				continue
			}
			budget := int64(math.MaxInt64)
			if budgets != nil {
				budget = budgets[i]
			}
			l := &bs.lanes[i]
			walked := int64(lo + bs.walk(l, bs.tabs[i].tab, ct, lo, hi, budget))
			if l.stats.Misses > budget {
				bs.alive[i] = false
				bs.batch.LaneEvents += walked
				bs.batch.LaneEventsSaved += n - walked
			}
		}
	}
	for i := range bs.lanes {
		if bs.alive[i] {
			bs.batch.LaneEvents += n
		}
	}
}

// RunCompiledBatch compiles each layout against ct and scores all of them
// in one walk through a fresh BatchSim. Callers batching repeatedly (a
// search over thousands of candidates) should hold one BatchSim and call
// Run to reuse its state buffers.
func RunCompiledBatch(cfg Config, ct *CompiledTrace, layouts []*program.Layout, opts BatchOptions) (*BatchResult, error) {
	bs, err := NewBatchSim(cfg)
	if err != nil {
		return nil, err
	}
	tables := make([]*CompiledLayout, len(layouts))
	for i, layout := range layouts {
		if tables[i], err = CompileLayout(cfg, ct, layout); err != nil {
			return nil, err
		}
	}
	return bs.Run(ct, tables, opts)
}
