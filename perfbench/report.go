package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// metric is one named, measured value.
type metric struct {
	name, unit string
	value      float64
}

// report is a run's result: human-readable lines, then the metrics of
// the run's kind (end-to-end untraced, per-layer traced).
type report struct {
	lines             []string
	attempted, failed int
	metrics           []metric
}

// resultJSON renders the final line of a run.
func (r *report) resultJSON() (string, error) {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is not a number", m.name)
		}
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	buf, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	return string(buf), err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (b *bench) report(rss float64) (*report, error) {
	r := &report{}
	var train, test int64
	for _, in := range b.ins {
		train += int64(in.trainEvents)
		test += int64(in.test.Len())
	}
	r.lines = append(r.lines, hostLine(),
		fmt.Sprintf("input workload=%s seed=%d train_scale=%g test_scale=%g programs=%d train_events=%d test_events=%d setups=%d passes=%d",
			b.sp.name, b.o.seed, b.trainScale, b.testScale, len(b.ins), train, test, len(b.setupWall), len(b.passes)))

	// Output identity: every layout and score, then their digests.
	layouts, scores := sha256.New(), sha256.New()
	var refs, misses int64
	for _, key := range b.order {
		out := b.outputs[key]
		if !b.sp.panel {
			line := "layout " + key + " " + out.digest
			r.lines = append(r.lines, line)
			fmt.Fprintln(layouts, line)
		}
		if out.scored {
			line := "score " + key + " " + out.score.String()
			r.lines = append(r.lines, line)
			fmt.Fprintln(scores, line)
			refs += out.score.dm.Refs + out.score.lru.Refs
			misses += out.score.dm.Misses + out.score.lru.Misses
		}
	}
	c := b.passes[0].c
	r.lines = append(r.lines,
		fmt.Sprintf("counts pass_events=%d trg.select_edges=%d trg.place_edges=%d trg.pair_entries=%d core.merges=%d core.heap_pops=%d core.stale_pops=%d core.cross_edges=%d score.refs=%d score.misses=%d",
			c.events+c.dmEvents+c.lruEvents, c.selectEdges, c.placeEdges, c.pairEntries, c.merges, c.heapPops, c.stalePops, c.crossEdges, refs, misses),
		"digest layouts="+hex.EncodeToString(layouts.Sum(nil)[:8])+" scores="+hex.EncodeToString(scores.Sum(nil)[:8]))
	r.lines = append(r.lines, b.lines...)

	var untraced []passRec
	for _, p := range b.passes {
		if !p.traced {
			untraced = append(untraced, p)
		}
		for _, j := range p.jobs {
			r.attempted++
			if j.failed || b.bad[j.key] {
				r.failed++
			}
		}
	}
	e2e := b.endToEnd(untraced, rss)
	r.metrics = e2e
	printed := e2e
	if b.o.trace {
		layer, err := b.perLayer()
		if err != nil {
			return nil, err
		}
		r.metrics = layer
		printed = append(append([]metric(nil), e2e...), layer...)
		if b.o.spansPath != "" {
			if err := writeSpans(b.o.spansPath, b.t.spans); err != nil {
				return nil, err
			}
			r.lines = append(r.lines, "spans "+b.o.spansPath)
		}
	}
	for _, m := range printed {
		r.lines = append(r.lines, fmt.Sprintf("metric %s %v %s", m.name, m.value, m.unit))
	}
	r.lines = append(r.lines, b.rawLines(untraced)...)
	r.lines = append(r.lines, jobLatencyLines(untraced)...)
	r.lines = append(r.lines, fmt.Sprintf("metric error_rate %v ratio (%d/%d)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
	return r, nil
}

// endToEnd computes the end-to-end metrics from the untraced passes. Its
// timings are process CPU time (user + system, so the garbage collector's
// work on other threads counts), in nominal seconds (see calib.go): on a
// shared host the wall clock also counts time the host gives to other
// tenants, and CPU time counts the host's speed drift.
func (b *bench) endToEnd(passes []passRec, rss float64) []metric {
	var rates, alloc []float64
	for _, p := range passes {
		rates = append(rates, float64(p.events())/p.calib.nominal(p.cpu))
		alloc = append(alloc, float64(p.alloc)/(1<<20))
	}
	var miss float64
	var n int
	for _, key := range b.order {
		out := b.outputs[key]
		switch {
		case !out.scored:
		case b.sp.panel:
			miss += out.score.dm.MissRate() + out.score.lru.MissRate()
			n += 2
		case out.alg == "gbsc2":
			miss += out.score.lru.MissRate()
			n++
		default:
			miss += out.score.dm.MissRate()
			n++
		}
	}
	return []metric{
		{"setup_s", "s", median(b.setupNominal)},
		{"events_per_nominal_s", "1/s", median(rates)},
		{"peak_rss_mb", "MB", rss},
		{"alloc_mb", "MB", median(alloc)},
		{"test_miss_pct", "%", 100 * ratio(miss, float64(n))},
	}
}

// rawLines reports the uncorrected figures, medians over the untraced
// passes: set-up and events per second by CPU time and by the wall clock,
// the calibration kernel's unit time, and for the panel the direct-mapped
// and LRU replay rates apart, in layout·events per wall second of each
// half's calls.
func (b *bench) rawLines(passes []passRec) []string {
	var cpuRates, unitUS, rates, dm, lru []float64
	for _, p := range passes {
		cpuRates = append(cpuRates, float64(p.events())/p.cpu.Seconds())
		unitUS = append(unitUS, 1e6*p.calib.cpu.Seconds()/float64(p.calib.units))
		var wall time.Duration
		for _, j := range p.jobs {
			wall += j.wall
		}
		rates = append(rates, float64(p.events())/wall.Seconds())
		dm = append(dm, float64(p.c.dmEvents)/p.dmDur.Seconds())
		lru = append(lru, float64(p.c.lruEvents)/p.lruDur.Seconds())
	}
	lines := []string{
		fmt.Sprintf("metric setup_cpu_s %v s", medianDuration(b.setupCPU)),
		fmt.Sprintf("metric setup_wall_s %v s", medianDuration(b.setupWall)),
		fmt.Sprintf("metric events_per_cpu_s %v 1/s", median(cpuRates)),
		fmt.Sprintf("metric events_per_s %v 1/s", median(rates)),
		fmt.Sprintf("metric calib_unit_us %v us", median(unitUS)),
	}
	if b.sp.panel {
		lines = append(lines,
			fmt.Sprintf("metric dm_events_per_s %v 1/s", median(dm)),
			fmt.Sprintf("metric lru_events_per_s %v 1/s", median(lru)))
	}
	return lines
}

// jobLatencyLines reports the median and 90th-percentile job latency over
// the untraced passes, each only where ten jobs lie beyond it.
func jobLatencyLines(passes []passRec) []string {
	var ms []float64
	for _, p := range passes {
		for _, j := range p.jobs {
			ms = append(ms, float64(j.wall)/float64(time.Millisecond))
		}
	}
	var lines []string
	for _, q := range []struct {
		name string
		p    float64
	}{{"job_p50_ms", 0.5}, {"job_p90_ms", 0.9}} {
		if v, ok := percentile(ms, q.p); ok {
			lines = append(lines, fmt.Sprintf("metric %s %v ms n=%d", q.name, v, len(ms)))
		} else {
			lines = append(lines, fmt.Sprintf("metric %s - ms n=%d (fewer than ten jobs beyond it)", q.name, len(ms)))
		}
	}
	return lines
}

// perLayer computes the per-layer metrics from the spans of the traced
// passes and set-ups: each layer's self time per pass (per set-up for the
// set-up layers), with the counts that explain it.
func (b *bench) perLayer() ([]metric, error) {
	spans := b.t.spans
	if err := checkSpans(spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	roots := make([]int, len(spans))
	for i := range spans {
		roots[i] = rootOf(spans, i)
	}

	// Self time per layer, summed over traced passes and per set-up.
	passSelf := map[string]time.Duration{}
	setupSelf := map[int]map[string]time.Duration{}
	for i, s := range spans {
		root := roots[i]
		if root == i {
			continue
		}
		switch spans[root].Name {
		case "pass":
			passSelf[s.Name] += self[i]
		case "setup":
			if setupSelf[root] == nil {
				setupSelf[root] = map[string]time.Duration{}
			}
			setupSelf[root][s.Name] += self[i]
		}
	}
	perSetup := func(name string) float64 {
		var xs []time.Duration
		for _, m := range setupSelf {
			xs = append(xs, m[name])
		}
		return medianDuration(xs)
	}

	var c counts
	var traced, untraced []float64
	coverage := math.Inf(1)
	for _, p := range b.passes {
		if !p.traced {
			untraced = append(untraced, p.wall.Seconds())
			continue
		}
		traced = append(traced, p.wall.Seconds())
		c.add(p.c)
		// What the pass's spans account for, against its own timer.
		var inside time.Duration
		for i := range spans {
			if i != p.span && roots[i] == p.span {
				inside += self[i]
			}
		}
		coverage = math.Min(coverage, 100*inside.Seconds()/p.wall.Seconds())
	}
	n := float64(len(traced))
	layer := func(name string) float64 { return passSelf[name].Seconds() / n }
	per := func(v int64) float64 { return float64(v) / n }
	return []metric{
		{"tracegen.generate_s", "s", perSetup("tracegen.generate")},
		{"trace.encode_s", "s", perSetup("trace.encode")},
		{"cache.compile_s", "s", perSetup("cache.compile")},
		{"trace.decode_s", "s", layer("trace.decode")},
		{"trace.decode_mb_per_s", "MB/s", ratio(per(c.decodeBytes)/(1<<20), layer("trace.decode"))},
		{"popular.select_s", "s", layer("popular.select")},
		{"trg.build_s", "s", layer("trg.build")},
		{"trg.build_events_per_s", "1/s", ratio(per(c.trgEvents), layer("trg.build"))},
		{"trg.avg_q_len", "count", ratio(float64(c.qLenSum), float64(c.qSteps))},
		{"trg.select_edges", "count", per(c.selectEdges)},
		{"trg.place_edges", "count", per(c.placeEdges)},
		{"trg.build_pairs_s", "s", layer("trg.build_pairs")},
		{"trg.pair_entries", "count", per(c.pairEntries)},
		{"core.place_s", "s", layer("core.place")},
		{"core.merges", "count", per(c.merges)},
		{"core.stale_pop_frac", "ratio", ratio(float64(c.stalePops), float64(c.heapPops))},
		{"core.cross_edges", "count", per(c.crossEdges)},
		{"core.place_assoc_s", "s", layer("core.place_assoc")},
		{"wcg.build_s", "s", layer("wcg.build")},
		{"baseline.ph_s", "s", layer("baseline.ph")},
		{"baseline.hkc_s", "s", layer("baseline.hkc")},
		{"invariant.check_s", "s", layer("invariant.check")},
		{"invariant.violations", "count", per(c.violations)},
		{"program.encode_s", "s", layer("program.encode")},
		{"cache.replay_dm_s", "s", layer("cache.replay_dm")},
		{"cache.replay_dm_ns_per_event", "ns", 1e9 * ratio(layer("cache.replay_dm"), per(c.dmEvents))},
		{"cache.collapsed_ref_frac", "ratio", ratio(float64(c.dmCollapsedRefs), float64(c.dmRefs))},
		{"cache.replay_lru_s", "s", layer("cache.replay_lru")},
		{"cache.replay_lru_ns_per_event", "ns", 1e9 * ratio(layer("cache.replay_lru"), per(c.lruEvents))},
		{"job.self_s", "s", layer("job")},
		{"span.coverage_pct", "%", coverage},
		{"tracing_overhead_pct", "%", 100 * (median(traced)/median(untraced) - 1)},
	}, nil
}
