package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tiny runs one workload at a small scale, one pass, one set-up.
func tiny(t *testing.T, workload string, traced bool, corrupt string) *report {
	t.Helper()
	r, err := run(options{workload: workload, seed: 3, seconds: 1e-9, trace: traced, scale: 0.02, corrupt: corrupt, minSetups: 1})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if _, err := r.resultJSON(); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// identity keeps the lines that must repeat byte for byte.
func identity(r *report) string {
	var keep []string
	for _, l := range r.lines {
		for _, p := range []string{"layout ", "score ", "counts ", "digest "} {
			if strings.HasPrefix(l, p) {
				keep = append(keep, l)
			}
		}
	}
	return strings.Join(keep, "\n")
}

func TestWorkloadsCorrectAndRepeatable(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a := tiny(t, s.name, false, "")
			b := tiny(t, s.name, true, "")
			for _, r := range []*report{a, b} {
				if r.attempted == 0 || r.failed != 0 {
					t.Fatalf("attempted %d, failed %d:\n%s", r.attempted, r.failed, strings.Join(r.lines, "\n"))
				}
			}
			if ia, ib := identity(a), identity(b); ia != ib || ia == "" {
				t.Errorf("outputs differ between runs:\n%s\n---\n%s", ia, ib)
			}
		})
	}
}

func TestCorruptedOutputsFail(t *testing.T) {
	for _, c := range []struct {
		workload, corrupt, want string
	}{
		{"layout-dm", "layout", "overlap"},
		{"layout-dm", "score", "reference model"},
		{"score-panel", "score", "reference model"},
	} {
		r := tiny(t, c.workload, false, c.corrupt)
		all := strings.Join(r.lines, "\n")
		if r.failed == 0 || !strings.Contains(all, c.want) {
			t.Errorf("%s with a corrupted %s: failed %d/%d, want a failure naming %q:\n%s",
				c.workload, c.corrupt, r.failed, r.attempted, c.want, all)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared workloads and metrics
// and the ones the command prints the same.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if got, want := strings.Join(names, ","), strings.Join(specNames, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, want)
	}
	declared := func(ms []struct{ Name, Unit string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name+" "+m.Unit)
		}
		sort.Strings(s)
		return strings.Join(s, ", ")
	}
	printed := func(ms []metric) string {
		var s []string
		for _, m := range ms {
			s = append(s, m.name+" "+m.unit)
		}
		sort.Strings(s)
		return strings.Join(s, ", ")
	}
	r0 := tiny(t, "layout-2way", false, "")
	if got, want := printed(r0.metrics), declared(decl.EndToEnd); got != want {
		t.Errorf("untraced metrics\n got %s\nwant %s", got, want)
	}
	r1 := tiny(t, "layout-2way", true, "")
	if got, want := printed(r1.metrics), declared(decl.PerLayer); got != want {
		t.Errorf("traced metrics\n got %s\nwant %s", got, want)
	}
}
