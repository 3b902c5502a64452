package trg

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Builder constructs TRGs incrementally, one activation at a time. This is
// the online profiling mode of Section 4.4 ("instead of processing traces
// we generate the TRGs during program execution using instrumentation
// techniques"): an instrumented program calls Observe on every procedure
// entry and return, and Result can be taken at any point — no trace is ever
// materialized.
//
// Both graphs accumulate in graph.Rows (one row table per block, keyed by
// the intervening block) and become graph.Graph values only when Result
// freezes them.
type Builder struct {
	prog    *program.Program
	chunker *program.Chunker
	keep    func(program.ProcID) bool

	sel   graph.Rows
	place graph.Rows
	db    *PairDB // nil unless pair tracking enabled

	qSel   *denseQueue
	qPlace *denseQueue
	buf    []BlockID // scratch interleaved blocks

	qLenSum int64
	qSteps  int64
	events  int64
	maxQLen int
	// qHist buckets the Q population observed after every activation with
	// telemetry.BucketIndex; a plain array so the per-event cost is one
	// increment, merged into a shard wholesale by whoever wants it.
	qHist [telemetry.NumBuckets]int64
}

// BuildStats summarizes one builder's construction effort: the inputs the
// telemetry layer reports as TRG build counters and the queue-occupancy
// histogram. All values are deterministic functions of the observed trace.
type BuildStats struct {
	// Events is the number of activations observed after popularity
	// filtering.
	Events int64
	// QSteps and QLenSum reproduce the Table 1 average Q population
	// (QLenSum/QSteps); MaxQLen is the high-water mark.
	QSteps  int64
	QLenSum int64
	MaxQLen int
	// QLenHist counts Q populations per telemetry bucket (BucketIndex).
	QLenHist [telemetry.NumBuckets]int64
}

// NewBuilder creates an online TRG builder. Set trackPairs to also build
// the Section 6 pair database (more expensive: O(k²) per activation in the
// Q population k). Pair tracking covers the chunks of the popular
// procedures, or every chunk when opts.Popular is nil; NewBuilder fails
// when those exceed MaxPairChunks.
func NewBuilder(prog *program.Program, opts Options, trackPairs bool) (*Builder, error) {
	opts.setDefaults()
	if opts.CacheBytes <= 0 || opts.QFactor <= 0 {
		return nil, fmt.Errorf("trg: non-positive cache bytes/Q factor %+v", opts)
	}
	chunker, err := program.NewChunker(prog, opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	bound := opts.CacheBytes * opts.QFactor
	b := &Builder{
		prog:    prog,
		chunker: chunker,
		keep: func(p program.ProcID) bool {
			return opts.Popular == nil || opts.Popular.Contains(p)
		},
		sel:    graph.NewRows(prog.NumProcs()),
		place:  graph.NewRows(chunker.NumChunks()),
		qSel:   newDenseQueue(bound, prog.NumProcs()),
		qPlace: newDenseQueue(bound, chunker.NumChunks()),
	}
	if trackPairs {
		b.db, err = NewPairDB(chunker.NumChunks(), func(c BlockID) bool {
			p, _ := chunker.Owner(program.ChunkID(c))
			return b.keep(p)
		})
		if err != nil {
			return nil, fmt.Errorf("%w (chunk size %d bytes)", err, opts.ChunkSize)
		}
	}
	return b, nil
}

// Observe feeds one procedure activation into both TRGs (and the pair
// database, when enabled).
func (b *Builder) Observe(e trace.Event) {
	p := e.Proc
	if !b.keep(p) {
		return
	}
	b.events++
	ext := e.ExtentBytes(b.prog)

	// Procedure granularity → TRG_select. Q is charged with the executed
	// extent, the activation's cache footprint.
	id := BlockID(p)
	b.buf = b.qSel.between(id, b.buf[:0])
	b.sel.Record(id, b.buf)
	b.qSel.touch(id, ext, b.events)
	qLen := b.qSel.Len()
	b.qLenSum += int64(qLen)
	b.qSteps++
	if qLen > b.maxQLen {
		b.maxQLen = qLen
	}
	b.qHist[telemetry.BucketIndex(int64(qLen))]++

	// Chunk granularity → TRG_place (+ pair database).
	cs, size := b.chunker.ChunkSize(), b.prog.Size(p)
	n := program.CeilDiv(ext, cs)
	first := BlockID(b.chunker.FirstChunk(p))
	for i := 0; i < n; i++ {
		cid := first + BlockID(i)
		b.buf = b.qPlace.between(cid, b.buf[:0])
		b.place.Record(cid, b.buf)
		if b.db != nil {
			b.db.addBetween(cid, b.buf)
		}
		b.qPlace.touch(cid, chunkBytes(cs, size, i), b.events)
	}
}

// chunkBytes is Chunker.ChunkBytes for chunk i of a procedure of the given
// size, without the owner search: chunkSize except for a short last chunk.
func chunkBytes(chunkSize, size, i int) int { return min(chunkSize, size-i*chunkSize) }

// Warm feeds one activation through the Q structures only: queues advance
// exactly as in Observe, but no nodes, edges, stats, or pairs are
// recorded. The sharded builder uses it to replay the boundary-overlap
// events that reconstruct the Q state at a shard cut; the shard then
// contributes each of its own events exactly once via Observe. Warm must
// mirror Observe's Q discipline precisely (same popularity filter, same
// extent and chunk charging) — the differential shard-vs-serial tests
// pin the two together.
func (b *Builder) Warm(e trace.Event) {
	p := e.Proc
	if !b.keep(p) {
		return
	}
	ext := e.ExtentBytes(b.prog)
	b.qSel.touch(BlockID(p), ext, b.events)
	cs, size := b.chunker.ChunkSize(), b.prog.Size(p)
	first := BlockID(b.chunker.FirstChunk(p))
	for i := 0; i < program.CeilDiv(ext, cs); i++ {
		b.qPlace.touch(first+BlockID(i), chunkBytes(cs, size, i), b.events)
	}
}

// resetQueues replaces both Q structures, either with the given seeds (a
// copy of the serial Q state at some trace position) or, when nil, by
// emptying them. Graphs and stats are left untouched: a worker in the
// sharded builder reuses one Builder across many shards, resetting the
// position-dependent Q state per shard while the graphs accumulate.
func (b *Builder) resetQueues(sel, place *denseQueue) {
	if sel == nil {
		b.qSel.reset()
	} else {
		b.qSel = sel
	}
	if place == nil {
		b.qPlace.reset()
	} else {
		b.qPlace = place
	}
}

// absorb folds another builder's graphs and statistics into b. Every sum
// is commutative, so folding partial builders in any order gives the same
// totals.
func (b *Builder) absorb(o *Builder) {
	b.sel.Merge(&o.sel)
	b.place.Merge(&o.place)
	b.events += o.events
	b.qSteps += o.qSteps
	b.qLenSum += o.qLenSum
	b.maxQLen = max(b.maxQLen, o.maxQLen)
	for i, v := range o.qHist {
		b.qHist[i] += v
	}
}

// Events returns the number of activations observed (after popularity
// filtering).
func (b *Builder) Events() int64 { return b.events }

// Result freezes the graphs built so far into a new Result. The snapshot
// is independent of the builder: later Observe calls do not change it, and
// each call builds fresh graphs.
func (b *Builder) Result() *Result {
	res := &Result{
		Select:  b.sel.Freeze(),
		Place:   b.place.Freeze(),
		Chunker: b.chunker,
	}
	if b.qSteps > 0 {
		res.AvgQProcs = float64(b.qLenSum) / float64(b.qSteps)
	}
	return res
}

// BuildStats returns the construction-effort summary accumulated so far.
func (b *Builder) BuildStats() BuildStats {
	return BuildStats{
		Events:   b.events,
		QSteps:   b.qSteps,
		QLenSum:  b.qLenSum,
		MaxQLen:  b.maxQLen,
		QLenHist: b.qHist,
	}
}

// Pairs returns the pair database, or nil if pair tracking was disabled.
// The database is the builder's own: later Observe calls keep adding to
// it.
func (b *Builder) Pairs() *PairDB { return b.db }
