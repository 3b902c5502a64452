// Package cache implements trace-driven instruction-cache simulation for
// direct-mapped and set-associative (LRU) caches. It is the measurement
// device of the paper's evaluation: given a layout and a trace, it reports
// the instruction-cache miss rate of the resulting executable.
//
// Every exact replay runs through one kernel (kernel.go) over a trace
// compiled once per (program, trace) pair (replay.go): Sim is one lane of
// it, BatchSim (batch.go) scores K layouts in one walk with K lanes. The
// kernel's repeat collapse and class-residency memo keep every counter
// byte-identical to the reference stream, which the tests check against
// a naive set model that shares no code with it.
package cache

import (
	"fmt"
	"math"

	"repro/internal/program"
	"repro/internal/trace"
)

// Config describes an instruction cache.
type Config struct {
	// SizeBytes is the total cache capacity in bytes.
	SizeBytes int
	// LineBytes is the cache line (block) size in bytes.
	LineBytes int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
}

// PaperConfig is the cache used throughout the paper's evaluation
// (Section 5.2): 8 KB direct-mapped with 32-byte lines.
var PaperConfig = Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive config %+v", c)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	return nil
}

// NumLines returns the total number of cache lines.
func (c Config) NumLines() int { return c.SizeBytes / c.LineBytes }

// NumSets returns the number of sets (NumLines for direct-mapped caches
// divided by associativity).
func (c Config) NumSets() int { return c.NumLines() / c.Assoc }

// Stats accumulates simulation results.
type Stats struct {
	Refs   int64
	Misses int64
	// Cold counts the compulsory subset of Misses: the first reference to
	// each line since the simulator was created or Reset. The remainder —
	// Conflict() — are lines that were evicted and fetched again, the
	// misses a placement can influence. Cold is maintained by Sim;
	// aggregates built by hand (e.g. the TLB simulator) leave it zero.
	Cold int64
}

// MissRate returns Misses/Refs, or 0 for an empty simulation.
func (s Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// Conflict returns the non-compulsory misses: conflict plus capacity. In
// the paper's direct-mapped configuration the working sets fit, so these
// are overwhelmingly mapping conflicts; RunTraceClassified separates the
// two exactly with a fully-associative shadow cache.
func (s Stats) Conflict() int64 { return s.Misses - s.Cold }

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.Refs += other.Refs
	s.Misses += other.Misses
	s.Cold += other.Cold
}

// Sim is a functional instruction-cache simulator: one lane of the replay
// kernel (kernel.go). The tag stored per way is the line-granular memory
// address (address / LineBytes), which uniquely identifies the cached
// content.
type Sim struct {
	cfg Config
	kernel
	l lane
	// memo caches the most recent trace compilation so hot loops that call
	// RunTrace repeatedly with the same (program, trace) — the sweep and
	// figure drivers replay one trace against hundreds of layouts — pay
	// for compilation once.
	memo *CompiledTrace
	// tab is the per-class table of the current call. Every
	// RunCompiled/ReplayCompiled call rebuilds it in place, because a
	// layout may be edited with SetAddr between calls.
	tab []placed
	// idx numbers the first-touch slots of l.seen. A call that starts
	// fresh (nothing referenced since Reset) renumbers them for its own
	// layout; any other call or an Access outside idx widens idx to the
	// union and moves the stamps (next and spare are the rebuild buffers),
	// so first touches carry across layouts, windows and Access calls
	// exactly as a line-addressed store would.
	idx, next lineIndex
	ix        indexer
	spare     []uint32
}

// NewSim creates a simulator for the given configuration.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, kernel: newKernel(cfg)}
	s.l.ways = make([]int64, s.sets*s.assoc)
	s.l.bver = make([]int64, s.nblocks)
	s.Reset()
	return s, nil
}

// MustNewSim is NewSim but panics on error.
func MustNewSim(cfg Config) *Sim {
	s, err := NewSim(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Reset clears cache contents and statistics. It is O(sets), not
// O(lines touched): the first-touch stamps are retired by an epoch bump,
// so every run starts with a fresh compulsory-miss accounting.
func (s *Sim) Reset() {
	for i := range s.l.ways {
		s.l.ways[i] = -1
	}
	s.l.stats, s.l.replay = Stats{}, ReplayStats{}
	s.newEpoch(s.l.seen, s.spare)
}

// Access references the line containing byte address addr, which must be
// non-negative like every layout address, updating LRU state and
// statistics. It reports whether the access hit.
func (s *Sim) Access(addr int64) bool {
	ln := addr / s.lineBytes
	i := s.idx.find(ln)
	if i < 0 {
		// Number the 64-line block around ln too, keeping every stamp.
		b := ln &^ 63
		s.ix.lo = append(append(s.ix.lo[:0], s.idx.lo...), b)
		s.ix.hi = append(append(s.ix.hi[:0], s.idx.hi...), b+64)
		s.ix.merge(&s.next)
		s.rebase()
		i = s.idx.find(ln)
	}
	p := placed{first: ln, set: ln % s.sets, span: 1, seenOff: s.idx.base[i] - s.idx.lo[i]}
	misses := s.l.stats.Misses
	s.l.stats.Refs++
	s.span(&s.l, &p, 1)
	return s.l.stats.Misses == misses
}

// rebase makes next, which must cover every line idx covers, the current
// index, moving each stamp to its line's slot under next.
func (s *Sim) rebase() {
	seen := grow(s.spare, s.next.slots())
	clear(seen)
	for i, lo := range s.idx.lo {
		j := s.next.find(lo)
		at := s.next.base[j] + lo - s.next.lo[j]
		copy(seen[at:], s.l.seen[s.idx.base[i]:s.idx.base[i]+s.idx.hi[i]-lo])
	}
	s.spare, s.l.seen = s.l.seen, seen
	s.idx, s.next = s.next, s.idx
}

// prepare rebuilds the per-class table for replaying ct placed by layout
// and invalidates the residency memo. It allocates only while its buffers
// grow.
func (s *Sim) prepare(ct *CompiledTrace, layout *program.Layout) {
	ct.checkProgram(layout)
	s.ix.reach(ct.classes, layout, s.lineBytes)
	if s.l.stats.Refs == 0 {
		// Nothing referenced since Reset: no stamp of this epoch to keep.
		s.ix.merge(&s.idx)
		s.l.seen = grow(s.l.seen, s.idx.slots())
	} else {
		s.ix.lo = append(s.ix.lo, s.idx.lo...)
		s.ix.hi = append(s.ix.hi, s.idx.hi...)
		s.ix.merge(&s.next)
		if !s.next.equal(&s.idx) {
			s.rebase()
		}
	}
	nc := int64(len(ct.classes.proc))
	s.tab = grow(s.tab, nc)
	s.l.res = grow(s.l.res, nc)
	s.place(s.tab, ct.classes, layout, &s.idx)
	s.invalidate(s.l.bver)
}

// Stats returns the accumulated statistics.
func (s *Sim) Stats() Stats { return s.l.stats }

// Replay returns the replay-engine counters accumulated since the last
// Reset (equivalently, for the last RunTrace/RunCompiled call, which Reset
// first). Access calls leave them unchanged.
func (s *Sim) Replay() ReplayStats { return s.l.replay }

// RunTrace resets the simulator and replays tr (placed by layout) through
// it, returning the resulting statistics. The layout supplies each
// procedure's starting byte address; each activation fetches, in order,
// every cache line overlapping its placed extent [addr, addr+extent) once
// per repeat — the reference stream a sequential instruction fetch would
// produce.
//
// The reference count is therefore alignment-DEPENDENT: a procedure whose
// start is not line-aligned can overlap ceil(extent/LineBytes)+1 lines, one
// more than trace.NumLineRefs counts for the same activation. NumLineRefs
// is the layout-independent footprint (the Table 1 "refs" columns, equal
// for every placement of the same trace); RunTrace models the fetch stream
// of one concrete placement, which is exactly the alignment sensitivity the
// paper exploits. Divergence is at most one line per repeat per activation.
//
// The method form exists so hot loops (the perturbation sweeps) can reuse
// one simulator's allocations across many layouts via Reset instead of
// allocating a fresh simulator per measurement.
//
// Replay runs through the compiled engine (see RunCompiled): the trace is
// precompiled once per (program, trace) pair — memoized across calls on
// the same simulator — and activations whose placed line span is
// self-conflict-free for this geometry account repeat iterations 2..r in
// O(1) instead of replaying them. The statistics are byte-identical to the
// general reference loop; differential tests enforce this against the
// retained oracle.
func (s *Sim) RunTrace(layout *program.Layout, tr *trace.Trace) Stats {
	prog := layout.Program()
	if !s.memo.matches(prog, tr) {
		s.memo = CompileTrace(prog, tr)
	}
	return s.RunCompiled(s.memo, layout)
}

// RunCompiled resets the simulator and replays the compiled trace placed
// by layout, returning the resulting statistics — byte-identical to
// RunTrace on the source trace (same reference stream, same cold/conflict
// split), at a fraction of the cost:
//
//   - The effective extent and repeat count of every activation come from
//     the compilation, not from per-event ExtentBytes/Repeats calls, so one
//     compiled trace amortizes across every layout that replays it.
//   - Repeat collapsing: an activation whose placed span of consecutive
//     lines is self-conflict-free in this geometry (span ≤ NumLines — which
//     gives distinct sets when direct-mapped and at most Assoc span lines
//     per set under LRU) hits on every reference after its first iteration,
//     and each iteration leaves the cache in the same state as the first.
//     Iterations 2..r are therefore accounted as Refs += (r−1)·span with no
//     simulation at all, turning O(r·span) into O(span). Spans that exceed
//     the limit can self-evict, so they fall back to the general loop.
//   - The class-residency memo (kernel.go): a conflict-free activation
//     whose sets saw no state change since the class's last full walk is
//     settled as r·span hits without touching the cache state.
//
// The layout must place the program the trace was compiled against.
func (s *Sim) RunCompiled(ct *CompiledTrace, layout *program.Layout) Stats {
	s.Reset()
	s.ReplayCompiled(ct, layout)
	return s.l.stats
}

// ReplayCompiled replays the compiled trace placed by layout WITHOUT
// resetting the simulator first, and returns only the statistics delta this
// replay contributed. Cache contents, the compulsory-miss epoch, and the
// accumulated totals all carry over from whatever ran before, so a sequence
// of ReplayCompiled calls over consecutive windows of one trace is
// byte-identical to a single RunCompiled over the whole trace.
//
// This is the windowed entry point of the sampled evaluation path: a
// warm-up window is replayed first (its delta discarded) to approximate the
// cache state the measurement window would have seen mid-trace, then the
// measurement window's delta is taken as the window's statistics. Misses on
// lines already touched during warm-up count as conflict, not cold, exactly
// as they would mid-run.
func (s *Sim) ReplayCompiled(ct *CompiledTrace, layout *program.Layout) Stats {
	before := s.l.stats
	s.prepare(ct, layout)
	s.walk(&s.l, s.tab, ct, 0, ct.n, math.MaxInt64)
	return Stats{
		Refs:   s.l.stats.Refs - before.Refs,
		Misses: s.l.stats.Misses - before.Misses,
		Cold:   s.l.stats.Cold - before.Cold,
	}
}

// RunTrace replays tr (placed by layout) through a fresh simulation and
// returns the resulting statistics. See (*Sim).RunTrace for the reference
// stream semantics (and its intentional divergence from trace.NumLineRefs
// on unaligned procedure starts).
func RunTrace(cfg Config, layout *program.Layout, tr *trace.Trace) (Stats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return Stats{}, err
	}
	return sim.RunTrace(layout, tr), nil
}

// MissRate is a convenience wrapper around RunTrace returning only the miss
// rate.
func MissRate(cfg Config, layout *program.Layout, tr *trace.Trace) (float64, error) {
	st, err := RunTrace(cfg, layout, tr)
	if err != nil {
		return 0, err
	}
	return st.MissRate(), nil
}

// RunCompiled replays a precompiled trace through a fresh simulation.
// Callers replaying the same trace against many layouts should compile it
// once (CompileTrace) and use this instead of RunTrace so the per-event
// extent/repeat resolution is not repeated per layout.
func RunCompiled(cfg Config, ct *CompiledTrace, layout *program.Layout) (Stats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return Stats{}, err
	}
	return sim.RunCompiled(ct, layout), nil
}

// MissRateCompiled is a convenience wrapper around RunCompiled returning
// only the miss rate.
func MissRateCompiled(cfg Config, ct *CompiledTrace, layout *program.Layout) (float64, error) {
	st, err := RunCompiled(cfg, ct, layout)
	if err != nil {
		return 0, err
	}
	return st.MissRate(), nil
}
