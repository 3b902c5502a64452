package trg

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/trace"
)

// requireSameGraph asserts byte-identical node sets and edge lists.
func requireSameGraph(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if !slices.Equal(want.Nodes(), got.Nodes()) {
		t.Fatalf("%s: node sets differ:\nwant %v\ngot  %v", label, want.Nodes(), got.Nodes())
	}
	if we, ge := want.Edges(), got.Edges(); !slices.Equal(we, ge) {
		t.Fatalf("%s: edges differ (%d vs %d)", label, len(we), len(ge))
	}
}

// requireMatchesReference asserts that a row-table build reproduces the
// reference builder exactly: both graphs, every BuildStats field, the
// Table 1 average, and, when db is non-nil, every pair count.
func requireMatchesReference(t *testing.T, label string, ref *refBuilder, res *Result, stats BuildStats, db *PairDB) {
	t.Helper()
	requireSameGraph(t, label+" select", ref.sel, res.Select)
	requireSameGraph(t, label+" place", ref.place, res.Place)
	if stats != ref.stats {
		t.Fatalf("%s: BuildStats differ:\nwant %+v\ngot  %+v", label, ref.stats, stats)
	}
	var avg float64
	if ref.stats.QSteps > 0 {
		avg = float64(ref.stats.QLenSum) / float64(ref.stats.QSteps)
	}
	if res.AvgQProcs != avg {
		t.Fatalf("%s: AvgQProcs %v, want %v", label, res.AvgQProcs, avg)
	}
	if db == nil {
		return
	}
	if db.Len() != len(ref.pairs) {
		t.Fatalf("%s: pair DB Len %d, want %d", label, db.Len(), len(ref.pairs))
	}
	for k, want := range ref.pairs {
		if got := db.Count(k.p, k.r, k.s); got != want {
			t.Fatalf("%s: D(%d,{%d,%d}) = %d, want %d", label, k.p, k.r, k.s, got, want)
		}
		if got := db.Count(k.p, k.s, k.r); got != want {
			t.Fatalf("%s: D(%d,{%d,%d}) = %d, want %d (swapped)", label, k.p, k.s, k.r, got, want)
		}
	}
}

// TestBuilderMatchesReference is the differential grid: random programs ×
// popular filter off/on × chunk sizes {32, 256, largest procedure} × Q
// factors {1, 2, 4} × pair tracking off/on, every cell byte-identical to
// the map-of-maps reference. Cells without pairs also pin BuildSharded and
// BuildStream to the serial build, and every cell checks the online mode:
// a Result taken mid-stream is an independent snapshot of the prefix, and
// observing the rest afterwards still ends at the batch result.
func TestBuilderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog, tr := randomWorkload(rng, 4+rng.Intn(20), 150+rng.Intn(350))
		largest := 0
		for p := 0; p < prog.NumProcs(); p++ {
			largest = max(largest, prog.Size(program.ProcID(p)))
		}
		cacheBytes := []int{128, 256, 512}[rng.Intn(3)]
		cut := rng.Intn(tr.Len())
		prefix := &trace.Trace{Events: tr.Events[:cut]}
		var bin bytes.Buffer
		if err := tr.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		for _, pop := range []*popular.Set{nil, popular.Select(prog, tr, popular.Options{})} {
			for _, chunk := range []int{32, 256, largest} {
				for _, qf := range []int{1, 2, 4} {
					for _, pairs := range []bool{false, true} {
						opts := Options{CacheBytes: cacheBytes, QFactor: qf, ChunkSize: chunk, Popular: pop}
						label := fmt.Sprintf("seed %d popular %v chunk %d qf %d pairs %v",
							seed, pop != nil, chunk, qf, pairs)
						ref, err := refBuild(prog, tr, opts, pairs)
						if err != nil {
							t.Fatal(err)
						}
						refPrefix, err := refBuild(prog, prefix, opts, pairs)
						if err != nil {
							t.Fatal(err)
						}
						b, err := NewBuilder(prog, opts, pairs)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range prefix.Events {
							b.Observe(e)
						}
						mid, midStats := b.Result(), b.BuildStats()
						requireMatchesReference(t, label+" mid-stream", refPrefix, mid, midStats, b.Pairs())
						for _, e := range tr.Events[cut:] {
							b.Observe(e)
						}
						res, stats := b.Result(), b.BuildStats()
						if (b.Pairs() != nil) != pairs {
							t.Fatalf("%s: pair database presence wrong", label)
						}
						requireMatchesReference(t, label, ref, res, stats, b.Pairs())
						// The mid-stream snapshot is unaffected by the
						// later observations.
						requireMatchesReference(t, label+" snapshot", refPrefix, mid, midStats, nil)
						if pairs {
							continue
						}
						for _, shards := range []int{2, 7} {
							sh, shStats, err := BuildSharded(prog, tr, opts, ShardOptions{Shards: shards})
							if err != nil {
								t.Fatal(err)
							}
							requireSameResult(t, fmt.Sprintf("%s shards %d", label, shards), res, sh, stats, shStats)
						}
						r, err := trace.NewReader(bytes.NewReader(bin.Bytes()))
						if err != nil {
							t.Fatal(err)
						}
						st, stStats, err := BuildStream(prog, r, opts, ShardOptions{ChunkEvents: 61})
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, label+" stream", res, st, stats, stStats)
					}
				}
			}
		}
	}
}
