package trg

// Sharded TRG construction for multi-GB traces.
//
// The paper's real workloads were 17M–146M basic-block traces; building
// their TRGs serially is bounded by one core's edge-recording throughput.
// This file partitions the event stream into contiguous shards, builds a
// partial TRG per shard on a worker pool, and merges the partials
// commutatively — with the result byte-identical to the serial Build at
// every shard count.
//
// Exactness hinges on reconstructing the ordered working set Q at each
// shard cut. Q's state after any event prefix is fully determined by a
// bounded suffix of that prefix: Q holds the most recently referenced
// distinct blocks whose charged sizes accumulate to the bound (Section 3),
// so replaying the trace from the oldest Q member's final reference
// rebuilds the exact member set, order, and charged sizes. (Blocks older
// than that reference were either evicted — and eviction only ever removes
// blocks older than every survivor — or re-referenced later.) The
// coordinator therefore scans the stream once through lightweight queues
// (Q maintenance only, no edge recording — the cheap part of construction)
// and hands each shard the boundary-overlap event range it must replay via
// Builder.Warm before contributing its own events via Observe. Every trace
// event is Observed exactly once across all shards, so edge weights, node
// sets, and queue-occupancy statistics merge by plain summation.
//
// When the required overlap reaches further back than the retained window
// (a program whose popular footprint never fills Q, so some member's last
// reference is arbitrarily old), the coordinator falls back to handing the
// shard a copy of its own dense queues — equally exact, linear in the
// block-id space rather than the trace, and keeps memory bounded for the
// streaming entry point.

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ShardOptions configures sharded construction. The zero value asks for a
// reasonable parallel build.
type ShardOptions struct {
	// Shards is the number of contiguous partitions BuildSharded splits an
	// in-memory trace into. 0 picks one per CPU; 1 is the serial path.
	Shards int
	// ChunkEvents is the shard body length in events for BuildStream,
	// which cannot know the trace length up front. Default 65536. Peak
	// memory scales with Workers × ChunkEvents, not with trace length.
	ChunkEvents int
	// Workers caps the builder goroutines. 0 picks one per CPU. The
	// result is identical at every worker count.
	Workers int
	// Telemetry, when non-nil, receives the ingest counters:
	// trg/shard_events (events ingested), trg/shard_count (shards
	// dispatched), trg/shard_overlap_events (boundary-overlap events
	// replayed for Q warm-up), trg/shard_seed_fallbacks (shards seeded by
	// queue snapshot instead of overlap replay), and trg/shard_merges
	// (partial-result merges folded into the final graphs).
	Telemetry *telemetry.Shard
}

func (so *ShardOptions) setDefaults() {
	if so.Shards == 0 {
		so.Shards = runtime.GOMAXPROCS(0)
	}
	if so.ChunkEvents == 0 {
		so.ChunkEvents = 1 << 16
	}
	if so.Workers == 0 {
		so.Workers = runtime.GOMAXPROCS(0)
	}
}

// BuildSharded is Build over contiguous in-memory shards: the trace is
// split into so.Shards partitions built in parallel and merged. The
// returned graphs and statistics are byte-identical to the serial
// BuildWithStats at every shard and worker count; only wall-clock time
// differs. Pair tracking (BuildPairs) is not offered sharded — its O(k²)
// pair emission dominates so thoroughly that the paper's Section 6
// extension stays on the serial path.
func BuildSharded(prog *program.Program, tr *trace.Trace, opts Options, so ShardOptions) (*Result, BuildStats, error) {
	so.setDefaults()
	if so.Shards <= 1 || tr.Len() == 0 {
		return BuildWithStats(prog, tr, opts)
	}
	per := (tr.Len() + so.Shards - 1) / so.Shards
	next := 0
	src := func() ([]trace.Event, error) {
		if next >= tr.Len() {
			return nil, io.EOF
		}
		end := min(next+per, tr.Len())
		c := tr.Events[next:end]
		next = end
		return c, nil
	}
	return buildShardedCore(prog, opts, src, min(so.Workers, so.Shards), so.Telemetry)
}

// BuildStream builds TRGs from a binary trace stream in bounded memory:
// events are decoded into chunks of so.ChunkEvents, each chunk becomes one
// shard, and at most a handful of chunks are in flight at once. The result
// is byte-identical to reading the whole trace into memory and running the
// serial Build.
func BuildStream(prog *program.Program, r *trace.Reader, opts Options, so ShardOptions) (*Result, BuildStats, error) {
	so.setDefaults()
	src := func() ([]trace.Event, error) {
		buf := make([]trace.Event, so.ChunkEvents)
		n, err := r.ReadChunk(buf)
		if n > 0 {
			return buf[:n], err
		}
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	return buildShardedCore(prog, opts, src, so.Workers, so.Telemetry)
}

// tracker is the coordinator's lightweight mirror of the builder's Q
// discipline: it advances both queues exactly as Builder.Observe/Warm do.
// It records no nodes, edges, or stats.
type tracker struct {
	prog    *program.Program
	chunker *program.Chunker
	keep    func(program.ProcID) bool

	qSel, qPlace *denseQueue
}

func newTracker(prog *program.Program, opts Options) (*tracker, error) {
	opts.setDefaults()
	if opts.CacheBytes <= 0 || opts.QFactor <= 0 {
		return nil, fmt.Errorf("trg: non-positive cache bytes/Q factor %+v", opts)
	}
	chunker, err := program.NewChunker(prog, opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	bound := opts.CacheBytes * opts.QFactor
	return &tracker{
		prog:    prog,
		chunker: chunker,
		keep: func(p program.ProcID) bool {
			return opts.Popular == nil || opts.Popular.Contains(p)
		},
		qSel:   newDenseQueue(bound, prog.NumProcs()),
		qPlace: newDenseQueue(bound, chunker.NumChunks()),
	}, nil
}

// observe advances the queues for the event at absolute trace index idx.
func (t *tracker) observe(idx int64, e trace.Event) {
	p := e.Proc
	if !t.keep(p) {
		return
	}
	ext := e.ExtentBytes(t.prog)
	t.qSel.touch(BlockID(p), ext, idx)
	cs, size := t.chunker.ChunkSize(), t.prog.Size(p)
	first := BlockID(t.chunker.FirstChunk(p))
	for i := 0; i < program.CeilDiv(ext, cs); i++ {
		t.qPlace.touch(first+BlockID(i), chunkBytes(cs, size, i), idx)
	}
}

// warmStart returns the earliest event index a shard starting at cur must
// replay so that warming fresh queues over [warmStart, cur) reproduces the
// serial Q state at cur: the oldest final reference among the members of
// either queue. Replaying from any earlier index is equally exact (extra
// events only touch blocks older than every member, which wash out), which
// is why a whole-event granularity start covers the chunk-level queue too.
func (t *tracker) warmStart(cur int64) int64 {
	o := cur
	if v, ok := t.qSel.frontLast(); ok && v < o {
		o = v
	}
	if v, ok := t.qPlace.frontLast(); ok && v < o {
		o = v
	}
	return o
}

// shardJob is one unit handed to the worker pool: replay warm (or adopt
// the seed queues), then contribute body. Exactly one of warm/seed is
// meaningful; both empty/nil means the shard starts from empty queues
// (shard 0, or a boundary where both queues happen to be empty).
type shardJob struct {
	warm      []trace.Event
	seedSel   *denseQueue
	seedPlace *denseQueue
	body      []trace.Event
}

// buildShardedCore is the coordinator: it pulls contiguous chunks from
// src, plans each shard's Q warm-up, dispatches shard jobs to a worker
// pool, scans the chunk through its own tracker queues, and finally merges
// the per-worker partial graphs and stats. Merging is commutative
// summation (the telemetry snapshot-merge discipline), so the outcome does
// not depend on how shards were scheduled across workers.
func buildShardedCore(prog *program.Program, opts Options, src func() ([]trace.Event, error), workers int, tel *telemetry.Shard) (*Result, BuildStats, error) {
	if workers < 1 {
		workers = 1
	}
	trk, err := newTracker(prog, opts)
	if err != nil {
		return nil, BuildStats{}, err
	}
	builders := make([]*Builder, workers)
	for i := range builders {
		b, err := NewBuilder(prog, opts, false)
		if err != nil {
			return nil, BuildStats{}, err
		}
		builders[i] = b
	}

	jobs := make(chan shardJob, workers)
	var wg sync.WaitGroup
	for _, b := range builders {
		wg.Add(1)
		go func(b *Builder) {
			defer wg.Done()
			for job := range jobs {
				b.resetQueues(job.seedSel, job.seedPlace)
				for _, e := range job.warm {
					b.Warm(e)
				}
				for _, e := range job.body {
					b.Observe(e)
				}
			}
		}(b)
	}

	var (
		pos           int64 // absolute index of the next unscanned event
		prev          []trace.Event
		prevStart     int64
		shards        int64
		overlapEvents int64
		seedFallbacks int64
		srcErr        error
	)
	for {
		chunk, err := src()
		if err == io.EOF {
			break
		}
		if err != nil {
			srcErr = err
			break
		}
		if len(chunk) == 0 {
			continue
		}
		job := shardJob{body: chunk}
		switch o := trk.warmStart(pos); {
		case o == pos:
			// Both queues empty at the cut; fresh queues are exact.
		case o >= prevStart && prev != nil:
			job.warm = prev[o-prevStart:]
			overlapEvents += int64(len(job.warm))
		default:
			// The overlap reaches beyond the retained window: seed the
			// shard with a snapshot of the serial Q state instead.
			job.seedSel = trk.qSel.clone()
			job.seedPlace = trk.qPlace.clone()
			seedFallbacks++
		}
		jobs <- job
		for i, e := range chunk {
			trk.observe(pos+int64(i), e)
		}
		prev, prevStart = chunk, pos
		pos += int64(len(chunk))
		shards++
	}
	close(jobs)
	wg.Wait()
	if srcErr != nil {
		return nil, BuildStats{}, srcErr
	}

	// Merge the per-worker partials. Each trace event was Observed by
	// exactly one worker, so node sets union and row counts, event
	// counts, Q-occupancy sums and histogram buckets add; the high-water
	// mark folds with max. All commutative: any worker count and any
	// schedule produce identical merged output.
	merged := builders[0]
	for _, b := range builders[1:] {
		merged.absorb(b)
	}
	merges := int64(len(builders))

	tel.Add("trg/shard_events", pos)
	tel.Add("trg/shard_count", shards)
	tel.Add("trg/shard_overlap_events", overlapEvents)
	tel.Add("trg/shard_seed_fallbacks", seedFallbacks)
	tel.Add("trg/shard_merges", merges)
	return merged.Result(), merged.BuildStats(), nil
}
