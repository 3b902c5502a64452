package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/telemetry/report"
	"repro/internal/trace"
	"repro/internal/trg"
)

// TestMain lets a test re-run this binary as the layout command itself, so
// exit codes and stderr are observed exactly as a user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("LAYOUT_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLayout runs the command with args and returns its combined output and
// exit code.
func runLayout(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LAYOUT_TEST_RUN_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), 0
}

// writeInputs writes a program description and a binary trace that
// activates every procedure a few times.
func writeInputs(t *testing.T, dir string, procs []program.Procedure) (progPath, tracePath string) {
	t.Helper()
	prog := program.MustNew(procs)
	var desc bytes.Buffer
	if err := prog.WriteDescription(&desc); err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	for i := 0; i < 4; i++ {
		for p := range procs {
			tr.Append(trace.Event{Proc: program.ProcID(p)})
		}
	}
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	progPath, tracePath = filepath.Join(dir, "p.prog"), filepath.Join(dir, "p.trace")
	if err := os.WriteFile(progPath, desc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return progPath, tracePath
}

// The Section 6 pair database keys chunk pairs by 16-bit ranks. A
// description whose popular procedures span more chunks than that must be
// refused with a clear error and a non-zero exit, not a panic.
func TestGBSC2RejectsOversizedPairSpace(t *testing.T) {
	dir := t.TempDir()
	const chunk = 256
	progPath, tracePath := writeInputs(t, dir, []program.Procedure{
		{Name: "huge", Size: trg.MaxPairChunks * chunk},
		{Name: "tail", Size: 4 * chunk},
	})
	out, code := runLayout(t, "-prog", progPath, "-trace", tracePath, "-alg", "gbsc2",
		"-chunk", fmt.Sprint(chunk), "-out", filepath.Join(dir, "p.layout"))
	if code == 0 {
		t.Fatalf("layout exited 0 on an oversized pair space:\n%s", out)
	}
	if strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
		t.Fatalf("layout panicked:\n%s", out)
	}
	want := fmt.Sprintf("pair database would track %d chunks, more than its limit of %d", trg.MaxPairChunks+4, trg.MaxPairChunks)
	if !strings.Contains(out, want) {
		t.Fatalf("error does not name the limit; want %q in:\n%s", want, out)
	}
}

// The same inputs within the limit place normally.
func TestGBSC2PlacesWithinPairSpace(t *testing.T) {
	dir := t.TempDir()
	progPath, tracePath := writeInputs(t, dir, []program.Procedure{
		{Name: "a", Size: 900}, {Name: "b", Size: 300}, {Name: "c", Size: 600},
	})
	layoutPath := filepath.Join(dir, "p.layout")
	if out, code := runLayout(t, "-prog", progPath, "-trace", tracePath, "-alg", "gbsc2", "-out", layoutPath); code != 0 {
		t.Fatalf("layout exited %d:\n%s", code, out)
	}
	if fi, err := os.Stat(layoutPath); err != nil || fi.Size() == 0 {
		t.Fatalf("no layout written: %v", err)
	}
}

// TestStatsStageTimers runs each algorithm with -stats and checks the run
// report: every stage the algorithm runs has its timer, no other stage
// does, and the stages, run one after another, sum to no more than
// layout/wall.
func TestStatsStageTimers(t *testing.T) {
	dir := t.TempDir()
	progPath, tracePath := writeInputs(t, dir, []program.Procedure{
		{Name: "a", Size: 900}, {Name: "b", Size: 300}, {Name: "c", Size: 600}, {Name: "d", Size: 100},
	})
	stages := map[string][]string{
		"gbsc": {"decode", "popular", "graph_build", "place", "check", "write"},
		"hkc":  {"decode", "popular", "graph_build", "place", "check", "write"},
		"ph":   {"decode", "graph_build", "place", "check", "write"},
	}
	all := []string{"decode", "popular", "graph_build", "place", "check", "write"}
	for alg, want := range stages {
		statsPath := filepath.Join(dir, alg+".json")
		if out, code := runLayout(t, "-prog", progPath, "-trace", tracePath, "-alg", alg,
			"-out", filepath.Join(dir, alg+".layout"), "-stats", statsPath); code != 0 {
			t.Fatalf("%s: layout exited %d:\n%s", alg, code, out)
		}
		f, err := os.Open(statsPath)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := report.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		wall, ok := rep.Timers["layout/wall"]
		if !ok || wall.Count != 1 {
			t.Fatalf("%s: layout/wall timer %+v", alg, wall)
		}
		var sum int64
		for _, s := range all {
			tm, ok := rep.Timers["layout/"+s]
			if ok != slices.Contains(want, s) {
				t.Errorf("%s: stage %s present=%v, want %v", alg, s, ok, !ok)
			}
			if ok && tm.Count != 1 {
				t.Errorf("%s: stage %s timed %d times, want once", alg, s, tm.Count)
			}
			sum += tm.TotalNS
		}
		if sum > wall.TotalNS {
			t.Errorf("%s: stages sum to %d ns, more than layout/wall %d ns", alg, sum, wall.TotalNS)
		}
	}
}
