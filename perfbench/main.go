// Command perfbench is the repository's pipeline benchmark. It times the
// paper's placement pipeline (profile → TRG → GBSC → layout) and its
// evaluation (trace replay), end to end and per layer, on inputs it
// generates from a seed, and checks every output.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload layout-dm --seed 1 --seconds 25 --trace 0
//
// Workloads: layout-dm, layout-2way, score-panel (see README.md). The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. The exit code is 1 when any output
// is wrong, 2 on bad usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	o := options{minSetups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload: layout-dm, layout-2way or score-panel")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to run timed passes")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.corrupt, "corrupt", "", "break one output per pass on purpose: layout or score")
	spansDir := flag.String("spans-dir", ".bench_build/spans", "directory for the traced run's spans")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if o.trace && *spansDir != "" {
		o.spansPath = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}

	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	out, err := r.resultJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
	if r.failed > 0 {
		os.Exit(1)
	}
}
