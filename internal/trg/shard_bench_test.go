package trg

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/popular"
	"repro/internal/tracegen"
)

// BenchmarkShardCoordinatorScan measures the sequential coordinator scan in
// isolation on the same paper-scale vortex workload the TRGBuildSerial/
// TRGBuildSharded8 benchmarks use. Every event passes through this scan
// once before any worker can own its shard, so scan throughput divided by
// serial-build throughput is the Amdahl ceiling on sharded speedup — a
// hardware-independent figure, unlike the wall-clock ratio, which is capped
// by the core count of the machine running the benchmark. BENCH_trg.json
// records all three as events/sec.
func BenchmarkShardCoordinatorScan(b *testing.B) {
	pair := tracegen.Lookup(tracegen.Suite(1.0), "vortex")
	if pair == nil {
		b.Fatal("unknown benchmark vortex")
	}
	tr := pair.Bench.Trace(pair.Train)
	pop := popular.Select(pair.Bench.Prog, tr, popular.Options{})
	opts := Options{CacheBytes: cache.PaperConfig.SizeBytes, Popular: pop}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trk, err := newTracker(pair.Bench.Prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Events {
			trk.observe(int64(j), tr.Events[j])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkQueueTouch times the Q maintenance hot path.
func BenchmarkQueueTouch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]BlockID, 4096)
	sizes := make([]int, 4096)
	for i := range ids {
		ids[i] = BlockID(rng.Intn(500))
		sizes[i] = rng.Intn(2000) + 64
	}
	q := newDenseQueue(16384, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		q.touch(ids[j], sizes[j], int64(i))
	}
}
