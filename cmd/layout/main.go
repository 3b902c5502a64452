// Command layout computes a procedure placement from a program description
// and a profiling trace, writing the resulting layout as "name address"
// lines.
//
// Usage:
//
//	layout -prog perl.prog -trace perl-train.trace -alg gbsc -out perl.layout
//	layout -prog perl.prog -trace perl-train.trace -alg hkc -stats report.json
//
// With -stats the command writes a JSON run report whose timers break the
// run into stages: layout/decode (program description and trace),
// layout/popular, layout/graph_build (the WCG, or the TRGs and for gbsc2
// the pair database), layout/place, layout/check, layout/write, and
// layout/wall around all of them. A stage an algorithm does not run is
// absent.
//
// Algorithms: gbsc (the paper's temporal-ordering placement), gbsc2 (the
// Section 6 two-way set-associative variant), ph (Pettis & Hansen), hkc
// (cache-line coloring), default (link order).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/invariant"
	"repro/internal/popular"
	"repro/internal/program"
	"repro/internal/staticcache"
	"repro/internal/telemetry"
	"repro/internal/telemetry/report"
	"repro/internal/trace"
	"repro/internal/trg"
	"repro/internal/wcg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("layout: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	progPath := flag.String("prog", "", "program description file (required)")
	tracePath := flag.String("trace", "", "binary trace file (required except for -alg default)")
	alg := flag.String("alg", "gbsc", "placement algorithm: gbsc, gbsc2, ph, hkc, default")
	out := flag.String("out", "", "output layout file (default stdout)")
	format := flag.String("format", "layout", "output format: layout (name address), order (symbol-ordering file), ldscript (GNU ld SECTIONS fragment)")
	cacheBytes := flag.Int("cache", 8192, "cache size in bytes")
	lineBytes := flag.Int("line", 32, "cache line size in bytes")
	chunk := flag.Int("chunk", 256, "TRG_place chunk size in bytes")
	pageAware := flag.Bool("pagelocal", false, "use the page-locality linearization (gbsc only)")
	incrFrom := flag.String("incr-from", "", "previous-profile trace file: place it first, then update incrementally to -trace via delta-driven merge-log replay (gbsc only; result is byte-identical to placing -trace from scratch)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path")
	checkFlag := flag.String("check", "fatal", "layout invariant checking: fatal, warn, or off")
	staticBounds := flag.Bool("static-bounds", false, "print the static must/may miss-rate interval of the produced layout (requires -trace)")
	statsPath := flag.String("stats", "", "write a JSON run report with per-stage timers to this path")
	flag.Parse()

	checkMode, err := invariant.ParseMode(*checkFlag)
	if err != nil {
		return err
	}
	if *progPath == "" {
		return fmt.Errorf("-prog is required")
	}

	stopProf, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			log.Printf("profiles: %v", perr)
		}
	}()

	var sh *telemetry.Shard // nil, and every stage timer a no-op, without -stats
	if *statsPath != "" {
		reg := telemetry.NewRegistry()
		sh = reg.Shard()
		rep := report.New("layout")
		rep.Params["prog"] = *progPath
		rep.Params["trace"] = *tracePath
		rep.Params["alg"] = *alg
		rep.Params["cache"] = strconv.Itoa(*cacheBytes)
		rep.Params["line"] = strconv.Itoa(*lineBytes)
		rep.Params["chunk"] = strconv.Itoa(*chunk)
		stopWall := sh.Time("layout/wall")
		defer func() {
			stopWall()
			rep.AddSnapshot(reg.Snapshot())
			rep.CaptureAlloc()
			if werr := writeReport(*statsPath, rep); werr != nil {
				log.Printf("stats: %v", werr)
			}
		}()
	}

	// stage runs fn under the stage timer layout/<name>.
	stage := func(name string, fn func()) {
		defer sh.Time("layout/" + name)()
		fn()
	}

	var prog *program.Program
	var tr *trace.Trace
	stage("decode", func() { prog, tr, err = readInputs(*progPath, *tracePath) })
	if err != nil {
		return err
	}
	if tr == nil && *alg != "default" {
		return fmt.Errorf("-trace is required for -alg %s", *alg)
	}
	if tr == nil && *staticBounds {
		return fmt.Errorf("-static-bounds needs -trace to bound the layout against")
	}
	if *incrFrom != "" && *alg != "gbsc" {
		return fmt.Errorf("-incr-from is only supported with -alg gbsc")
	}
	if *incrFrom != "" && *pageAware {
		return fmt.Errorf("-incr-from cannot be combined with -pagelocal")
	}

	cfg := cache.Config{SizeBytes: *cacheBytes, LineBytes: *lineBytes, Assoc: 1}
	if *alg == "gbsc2" {
		cfg.Assoc = 2
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	var l *program.Layout
	// Each algorithm class claims different structural guarantees, checked
	// after the fact: packed layouts may not have gaps, the GBSC family must
	// line-align its popular procedures, HKC promises neither.
	checkOpts := invariant.LayoutOptions{Cache: cfg}
	var pop *popular.Set
	if *alg == "hkc" || *alg == "gbsc" || *alg == "gbsc2" {
		stage("popular", func() { pop = popular.Select(prog, tr, popular.Options{}) })
	}
	trgOpts := trg.Options{CacheBytes: cfg.SizeBytes, ChunkSize: *chunk, Popular: pop}
	switch *alg {
	case "default":
		stage("place", func() { l = program.DefaultLayout(prog) })
		checkOpts.RequirePacked = true
	case "ph":
		var g *graph.Graph
		stage("graph_build", func() { g = wcg.Build(tr) })
		stage("place", func() { l, err = baseline.PHLayout(prog, g) })
		checkOpts.RequirePacked = true
	case "hkc":
		var g *graph.Graph
		stage("graph_build", func() { g = wcg.BuildFiltered(tr, pop.Contains) })
		stage("place", func() { l, err = baseline.HKC(prog, g, pop, cfg) })
		checkOpts.Popular = pop
	case "gbsc":
		var res *trg.Result
		stage("graph_build", func() { res, err = trg.Build(prog, tr, trgOpts) })
		if err != nil {
			return err
		}
		stage("place", func() {
			switch {
			case *incrFrom != "":
				l, err = incrLayout(prog, res, pop, cfg, *incrFrom, *chunk)
			case *pageAware:
				l, err = core.PlacePageAware(prog, res, pop, cfg)
			default:
				l, err = core.Place(prog, res, pop, cfg)
			}
		})
		checkOpts.Popular = pop
		checkOpts.Chunker = res.Chunker
		checkOpts.RequireAlignedPopular = true
	case "gbsc2":
		var res *trg.Result
		var db *trg.PairDB
		stage("graph_build", func() { res, db, err = trg.BuildPairs(prog, tr, trgOpts) })
		if err != nil {
			return err
		}
		stage("place", func() { l, err = core.PlaceAssoc(prog, res, db, pop, cfg) })
		checkOpts.Popular = pop
		checkOpts.Chunker = res.Chunker
		// Section 6 aligns popular procedures to set boundaries, so the
		// placement period is the set count.
		checkOpts.Period = cfg.NumSets()
		checkOpts.RequireAlignedPopular = true
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	if err != nil {
		return err
	}
	var vs []invariant.Violation
	stage("check", func() {
		if err = l.Validate(); err == nil {
			vs = invariant.CheckLayout(prog, l, checkOpts)
		}
	})
	if err != nil {
		return fmt.Errorf("internal error: produced invalid layout: %w", err)
	}
	if err := invariant.Enforce(checkMode, "layout/"+*alg, vs, log.Printf); err != nil {
		return err
	}

	emit := func(w io.Writer) error {
		switch *format {
		case "layout":
			return l.WriteLayout(w)
		case "order":
			return l.WriteOrder(w)
		case "ldscript":
			return l.WriteLinkerScript(w, 0x400000)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	stage("write", func() {
		if *out == "" {
			err = emit(os.Stdout)
			return
		}
		var f *os.File
		if f, err = os.Create(*out); err != nil {
			return
		}
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "layout: %s over %d procedures, extent %d bytes\n",
		*alg, prog.NumProcs(), l.Extent())
	if *staticBounds {
		iv, err := staticcache.Bounds(prog, tr, cfg, l)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "layout: static miss-rate bounds [%.4f%%, %.4f%%] (width %.4fpp, %.1f%% of refs classified)\n",
			100*iv.LowerRate(), 100*iv.UpperRate(), 100*iv.Width(), 100*iv.ClassifiedFrac())
	}
	return nil
}

// readInputs reads the program description and, when tracePath is set,
// the binary trace, validated against the program.
func readInputs(progPath, tracePath string) (*program.Program, *trace.Trace, error) {
	pf, err := os.Open(progPath)
	if err != nil {
		return nil, nil, err
	}
	prog, err := program.ReadDescription(pf)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil || tracePath == "" {
		return prog, nil, err
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace.ReadBinary(tf)
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = tr.Validate(prog)
	}
	if err != nil {
		return nil, nil, err
	}
	return prog, tr, nil
}

// writeReport writes rep to path, propagating Close errors so a truncated
// report never passes silently.
func writeReport(path string, rep *report.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = report.Write(f, rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// incrLayout places the old profile's TRG first, then updates it to the
// new profile (newRes, built from -trace) through the incremental engine —
// exercising the delta path end to end while producing a layout
// byte-identical to placing -trace from scratch. The popular set is the
// new profile's: it is the set the final layout must serve, and building
// the old TRG against it keeps the two graphs diffable.
func incrLayout(prog *program.Program, newRes *trg.Result, pop *popular.Set, cfg cache.Config, oldPath string, chunk int) (*program.Layout, error) {
	of, err := os.Open(oldPath)
	if err != nil {
		return nil, err
	}
	oldTr, err := trace.ReadBinary(of)
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := oldTr.Validate(prog); err != nil {
		return nil, fmt.Errorf("-incr-from trace: %w", err)
	}
	oldRes, err := trg.Build(prog, oldTr, trg.Options{
		CacheBytes: cfg.SizeBytes, ChunkSize: chunk, Popular: pop,
	})
	if err != nil {
		return nil, err
	}
	d, err := trg.Diff(oldRes, newRes)
	if err != nil {
		return nil, err
	}
	eng, err := incr.New(prog, oldRes, pop, cfg)
	if err != nil {
		return nil, err
	}
	l, err := eng.Update(d)
	if err != nil {
		return nil, err
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "layout: incremental update reused %d merges, replayed %d (%d snapshots)\n",
		st.MergesReused, st.MergesReplayed, st.Snapshots)
	return l, nil
}
