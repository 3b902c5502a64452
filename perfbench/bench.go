package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/program"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale, when positive, replaces the workload's training and test
	// scales, for quick runs.
	scale float64
	// corrupt ("layout" or "score") breaks one output per pass on purpose,
	// so the checks can be shown to fail the run.
	corrupt string
	// spansPath is where a traced run writes its spans; empty skips it.
	spansPath string
	// minSetups is how many times set-up runs at least.
	minSetups int
}

// output is one job's product: a placed layout (layout workloads) or one
// panel layout's scores.
type output struct {
	in     *benchInput
	alg    string
	layout *program.Layout
	digest string
	score  score
	scored bool
}

// jobRec is one timed job.
type jobRec struct {
	key    string
	wall   time.Duration
	events int64
	failed bool
}

// passRec is one pass over a workload's jobs.
type passRec struct {
	traced        bool
	span          int
	wall, cpu     time.Duration
	alloc         uint64
	jobs          []jobRec
	c             counts
	dmDur, lruDur time.Duration
	// calib is the sampler's work during the pass; cpu excludes it.
	calib calibSample
}

// bench is the state of one run.
type bench struct {
	o  options
	sp spec
	// trainScale and testScale are the suite scales of the inputs.
	trainScale, testScale float64
	t                     *tracer // nil unless traced
	ins                   []*benchInput

	// setupCPU and setupWall are each set-up's process CPU and wall time,
	// and setupNominal its CPU time in nominal seconds.
	setupCPU, setupWall []time.Duration
	setupNominal        []float64
	passes              []passRec
	nextJob             int

	outputs map[string]*output
	order   []string
	bad     map[string]bool
	lines   []string
}

func newBench(o options) (*bench, error) {
	sp, ok := lookupSpec(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	switch o.corrupt {
	case "", "layout", "score":
	default:
		return nil, fmt.Errorf("unknown corruption %q", o.corrupt)
	}
	b := &bench{o: o, sp: sp, trainScale: sp.trainScale, testScale: testScale, outputs: map[string]*output{}, bad: map[string]bool{}}
	if o.scale > 0 {
		b.trainScale, b.testScale = o.scale, o.scale
	}
	if o.trace {
		b.t = newTracer()
	}
	return b, nil
}

// run sets up, runs timed passes for o.seconds, scores and checks the
// outputs, and returns the report.
func run(o options) (*report, error) {
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.free()
	var rss float64
	err = singleP(cal, func(sm *sampler) error {
		if err := b.setup(sm); err != nil {
			return err
		}
		// Passes run while the next one, at the median pass time so far,
		// still ends within o.seconds; there is always one, and in a
		// traced run two. A traced run alternates untraced and traced
		// passes, so the difference between them is the tracing overhead.
		start := time.Now()
		var walls []time.Duration
		for k := 0; ; k++ {
			b.pass(sm, o.trace && k%2 == 1)
			walls = append(walls, b.passes[k].wall)
			if (!o.trace || k >= 1) && time.Since(start).Seconds()+medianDuration(walls) > o.seconds {
				break
			}
		}
		rss = peakRSSMB()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !b.sp.panel {
		if err := b.evaluate(); err != nil {
			return nil, err
		}
	}
	b.checkReference()
	return b.report(rss)
}

// setup synthesizes the inputs, and for the panel compiles the test traces
// and builds the panels, several times; the last set-up is used.
func (b *bench) setup(sm *sampler) error {
	start := time.Now()
	for rep := 0; rep < b.o.minSetups || (rep < 10 && time.Since(start) < time.Second); rep++ {
		// Each set-up starts from a collected heap holding no earlier
		// set-up's inputs, so the peak RSS does not depend on how many
		// set-ups ran or when the collector last did.
		b.ins = nil
		runtime.GC()
		root := b.t.begin("setup", -1, -1)
		m0, cpu0, t0 := sm.mark(), cpuTime(), time.Now()
		ins, err := setupInputs(b.t, root, b.sp, b.o.seed, b.trainScale, b.testScale)
		if err == nil && b.sp.panel {
			if err = prepareScoring(b.t, root, ins); err == nil {
				err = buildPanels(b.t, root, ins, b.o.seed)
			}
		}
		b.setupWall = append(b.setupWall, time.Since(t0))
		smp := sm.mark().sub(m0)
		cpu := cpuTime() - cpu0 - smp.cpu
		b.setupCPU = append(b.setupCPU, cpu)
		b.setupNominal = append(b.setupNominal, smp.nominal(cpu))
		b.t.end(root)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.ins = ins
	}
	runtime.GC()
	return nil
}

// pass runs every job of the workload once, in a fixed order.
func (b *bench) pass(sm *sampler, traced bool) {
	t := b.t
	if !traced {
		t = nil
	}
	p := passRec{traced: traced}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p.span = t.begin("pass", -1, -1)
	m0, cpu0 := sm.mark(), cpuTime()
	start := time.Now()
	first := true
	for _, in := range b.ins {
		if b.sp.panel {
			for _, pl := range in.panel {
				b.nextJob++
				js := t.begin("job", p.span, b.nextJob)
				j0 := time.Now()
				s := scoreLayout(t, js, b.nextJob, in, pl.layout, &p.c)
				wall := time.Since(j0)
				t.end(js)
				if b.o.corrupt == "score" && first {
					s.dm.Misses++
				}
				key := in.name + "/" + pl.name
				ok := b.record(key, &output{in: in, alg: pl.name, layout: pl.layout, digest: s.String(), score: s, scored: true})
				p.dmDur += s.dmDur
				p.lruDur += s.lruDur
				p.jobs = append(p.jobs, jobRec{key: key, wall: wall, events: 2 * int64(in.test.Len()), failed: !ok})
				first = false
			}
			continue
		}
		for _, alg := range b.sp.algs {
			b.nextJob++
			js := t.begin("job", p.span, b.nextJob)
			j0 := time.Now()
			var c counts
			l, enc, err := placeJob(t, js, b.nextJob, in, alg, &c, b.o.corrupt == "layout" && first)
			wall := time.Since(j0)
			t.end(js)
			p.c.add(c)
			key := in.name + "/" + alg
			ok := err == nil
			if err != nil {
				b.fail(key, err.Error())
			} else {
				sum := sha256.Sum256(enc)
				ok = b.record(key, &output{in: in, alg: alg, layout: l, digest: hex.EncodeToString(sum[:8])})
			}
			p.jobs = append(p.jobs, jobRec{key: key, wall: wall, events: int64(in.trainEvents), failed: !ok})
			first = false
		}
	}
	p.wall = time.Since(start)
	p.calib = sm.mark().sub(m0)
	p.cpu = cpuTime() - cpu0 - p.calib.cpu
	t.end(p.span)
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
	b.passes = append(b.passes, p)
}

// events is the number of trace events the pass's jobs processed.
func (p *passRec) events() int64 {
	var n int64
	for _, j := range p.jobs {
		n += j.events
	}
	return n
}

// record keeps the first output under key and reports whether a later one
// is identical to it.
func (b *bench) record(key string, out *output) bool {
	prev, ok := b.outputs[key]
	if !ok {
		b.outputs[key] = out
		b.order = append(b.order, key)
		return true
	}
	if prev.digest != out.digest {
		b.fail(key, fmt.Sprintf("output %s differs from the first pass's %s", out.digest, prev.digest))
		return false
	}
	return true
}

// fail marks key's output wrong; every job that produced it fails.
func (b *bench) fail(key, why string) {
	if !b.bad[key] {
		b.lines = append(b.lines, "fail "+key+": "+why)
	}
	b.bad[key] = true
}

// evaluate scores each placed layout on the test input, on both
// geometries, for test_miss_pct and the reference check.
func (b *bench) evaluate() error {
	if err := prepareScoring(nil, -1, b.ins); err != nil {
		return err
	}
	var c counts
	for i, key := range b.order {
		out := b.outputs[key]
		out.score, out.scored = scoreLayout(nil, -1, -1, out.in, out.layout, &c), true
		if b.o.corrupt == "score" && i == 0 {
			out.score.dm.Misses++
		}
	}
	return nil
}

// checkReference recomputes every score with the reference model, on at
// most GOMAXPROCS goroutines, and fails each output whose score differs.
func (b *bench) checkReference() {
	type task struct {
		key  string
		geom string
		cfg  cache.Config
		got  cache.Stats
		want cache.Stats
	}
	var tasks []task
	for _, key := range b.order {
		out := b.outputs[key]
		if out.scored {
			tasks = append(tasks,
				task{key: key, geom: "dm", cfg: dmConfig, got: out.score.dm},
				task{key: key, geom: "lru", cfg: lruConfig, got: out.score.lru})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				out := b.outputs[tasks[i].key]
				tasks[i].want = refStats(tasks[i].cfg, out.layout, out.in.test)
			}
		}()
	}
	wg.Wait()
	for _, tk := range tasks {
		if tk.got != tk.want {
			b.fail(tk.key, fmt.Sprintf("%s score %s differs from the reference model's %s",
				tk.geom, statsString(tk.got), statsString(tk.want)))
		}
	}
}

func statsString(s cache.Stats) string {
	return fmt.Sprintf("%d/%d/%d", s.Refs, s.Misses, s.Cold)
}

// String renders both geometries' refs/misses/cold; it is the score's
// identity.
func (s score) String() string {
	return "dm=" + statsString(s.dm) + " lru=" + statsString(s.lru)
}
