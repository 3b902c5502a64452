package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The cache geometries of the paper's evaluation: its 8 KB direct-mapped
// cache with 32-byte lines, and the Section 6 two-way LRU cache of the same
// size.
var (
	dmConfig  = cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 1}
	lruConfig = cache.Config{SizeBytes: 8192, LineBytes: 32, Assoc: 2}
)

// chunkBytes is cmd/layout's default TRG_place chunk size.
const chunkBytes = 256

// randomPanelLayouts is the number of seeded random layouts in each
// program's score panel.
const randomPanelLayouts = 12

// testScale is the suite scale of the held-out test inputs every workload
// scores layouts on: the paper judges a layout on the full test input.
const testScale = 1.0

// spec describes one workload.
type spec struct {
	name string
	// trainScale is the suite scale of the training inputs.
	trainScale float64
	// algs are the cmd/layout -alg jobs run per program (layout-*).
	algs []string
	// panel marks the scoring workload.
	panel bool
	// fixedTrain keeps the Table 1 training inputs and lets the seed vary
	// only the test inputs.
	fixedTrain bool
}

var specs = []spec{
	{name: "layout-dm", trainScale: 1.0, algs: []string{"gbsc", "ph", "hkc"}},
	// At scale 0.05 gcc's Section 6 placement cost depends steeply on the
	// popular set its training input selects (10 s for 38 procedures, 39 s
	// for 49, on a 2-vCPU Xeon VM), so seeded training inputs would let the
	// seed decide the figures; the Table 1 training inputs keep the timed
	// work fixed.
	{name: "layout-2way", trainScale: 0.05, algs: []string{"gbsc2"}, fixedTrain: true},
	{name: "score-panel", trainScale: 1.0, panel: true},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// benchInput is one program with its generated inputs.
type benchInput struct {
	name string
	prog *program.Program
	// trainBytes is the encoded training trace the layout jobs decode.
	trainBytes  []byte
	trainEvents int
	test        *trace.Trace
	// ct and sims serve scoring: the compiled test trace and one simulator
	// per geometry, reused across layouts.
	ct      *cache.CompiledTrace
	dm, lru *cache.Sim
	panel   []panelLayout
}

// panelLayout is one layout of a score panel.
type panelLayout struct {
	name   string
	layout *program.Layout
}

// inputSeed derives an input's trace seed from the benchmark seed; seed 0
// gives the Table 1 input.
func inputSeed(seed, base int64) int64 { return base + seed*1_000_003 }

// setupInputs synthesizes the six Table 1 programs' inputs for seed, the
// training inputs at trainScale and the test inputs at testScale, and
// encodes the training traces, recording tracegen and trace spans under
// parent.
func setupInputs(t *tracer, parent int, sp spec, seed int64, trainScale, testScale float64) ([]*benchInput, error) {
	var ins []*benchInput
	tests := tracegen.Suite(testScale)
	for i, p := range tracegen.Suite(trainScale) {
		train, test := p.Train, tests[i].Test
		if !sp.fixedTrain {
			train.Seed = inputSeed(seed, train.Seed)
		}
		test.Seed = inputSeed(seed, test.Seed)
		in := &benchInput{name: p.Bench.Name, prog: p.Bench.Prog}
		var trainTr *trace.Trace
		t.do("tracegen.generate", parent, -1, func() {
			trainTr = p.Bench.Trace(train)
			in.test = p.Bench.Trace(test)
		})
		var buf bytes.Buffer
		var err error
		t.do("trace.encode", parent, -1, func() { err = trainTr.WriteBinary(&buf) })
		if err != nil {
			return nil, fmt.Errorf("%s: encode training trace: %w", in.name, err)
		}
		in.trainBytes = buf.Bytes()
		in.trainEvents = trainTr.Len()
		ins = append(ins, in)
	}
	return ins, nil
}

// prepareScoring compiles each program's test trace and creates its
// simulators.
func prepareScoring(t *tracer, parent int, ins []*benchInput) error {
	for _, in := range ins {
		t.do("cache.compile", parent, -1, func() { in.ct = cache.CompileTrace(in.prog, in.test) })
		var err error
		if in.dm, err = cache.NewSim(dmConfig); err != nil {
			return err
		}
		if in.lru, err = cache.NewSim(lruConfig); err != nil {
			return err
		}
	}
	return nil
}

// buildPanels builds each program's 16-layout score panel: default, PH,
// HKC and GBSC placed from the training trace through the same jobs
// layout-dm times, then seeded random layouts.
func buildPanels(t *tracer, parent int, ins []*benchInput, seed int64) error {
	for i, in := range ins {
		in.panel = []panelLayout{{name: "default", layout: program.DefaultLayout(in.prog)}}
		for _, alg := range []string{"ph", "hkc", "gbsc"} {
			var c counts
			l, _, err := placeJob(t, parent, -1, in, alg, &c, false)
			if err != nil {
				return fmt.Errorf("%s: panel %s: %w", in.name, alg, err)
			}
			in.panel = append(in.panel, panelLayout{name: alg, layout: l})
		}
		for k := 0; k < randomPanelLayouts; k++ {
			rng := rand.New(rand.NewSource(inputSeed(seed, int64(1000*(i+1)+k))))
			in.panel = append(in.panel, panelLayout{
				name:   fmt.Sprintf("random%02d", k),
				layout: baseline.RandomLayout(in.prog, rng),
			})
		}
	}
	return nil
}
