package trg

import (
	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// Options configures TRG construction.
type Options struct {
	// CacheBytes is the target instruction-cache capacity; the Q bound is
	// QFactor × CacheBytes. Default 8192.
	CacheBytes int
	// QFactor scales the Q bound; the paper found 2× the cache size to
	// work well (Section 3). Default 2.
	QFactor int
	// ChunkSize is the TRG_place granularity in bytes. Default 256
	// (Section 4.1). A ChunkSize ≥ the largest procedure effectively
	// disables chunking (each procedure one chunk), which is the ablation
	// knob for the "procedures larger than the cache" discussion.
	ChunkSize int
	// Popular restricts the graphs to popular procedures; nil means all
	// procedures are included.
	Popular *popular.Set
}

func (o *Options) setDefaults() {
	if o.CacheBytes == 0 {
		o.CacheBytes = 8192
	}
	if o.QFactor == 0 {
		o.QFactor = 2
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = program.DefaultChunkSize
	}
}

// Result holds the graphs produced by Build.
type Result struct {
	// Select is TRG_select: nodes are popular procedures
	// (graph.NodeID = program.ProcID), edge weights count interleavings.
	Select *graph.Graph
	// Place is TRG_place: nodes are 256-byte chunks of popular procedures
	// (graph.NodeID = program.ChunkID).
	Place *graph.Graph
	// Chunker maps between procedures and TRG_place chunk IDs.
	Chunker *program.Chunker
	// AvgQProcs is the average number of procedures present in the
	// procedure-granularity Q during the build — the "average Q size"
	// column of Table 1.
	AvgQProcs float64
}

// Build runs one pass over the trace and constructs TRG_select and
// TRG_place simultaneously (Section 4.1 notes this is straightforward).
// It is the batch counterpart of the online Builder.
func Build(prog *program.Program, tr *trace.Trace, opts Options) (*Result, error) {
	res, _, err := BuildWithStats(prog, tr, opts)
	return res, err
}

// BuildWithStats is Build, additionally returning the construction-effort
// summary (event counts, queue occupancy) for the telemetry layer.
func BuildWithStats(prog *program.Program, tr *trace.Trace, opts Options) (*Result, BuildStats, error) {
	b, err := NewBuilder(prog, opts, false)
	if err != nil {
		return nil, BuildStats{}, err
	}
	for _, e := range tr.Events {
		b.Observe(e)
	}
	return b.Result(), b.BuildStats(), nil
}

// BuildPairs constructs the chunk-granularity pair database (and the
// ordinary chunk TRG, which the set-associative placer still uses for its
// node-selection loop) in one trace pass.
func BuildPairs(prog *program.Program, tr *trace.Trace, opts Options) (*Result, *PairDB, error) {
	b, err := NewBuilder(prog, opts, true)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range tr.Events {
		b.Observe(e)
	}
	return b.Result(), b.Pairs(), nil
}
