package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/program"
	"repro/internal/telemetry/report"
	"repro/internal/trace"
)

// TestMain lets a test re-run this binary as the cachesim command itself,
// so exit codes and stderr are observed exactly as a user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("CACHESIM_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCachesim runs the command with args and returns its combined output
// and exit code.
func runCachesim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CACHESIM_TEST_RUN_MAIN=1")
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

// writeFile writes data to dir/name and returns the path.
func writeFile(t *testing.T, dir, name string, write func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A valid layout may leave a huge gap: here the last procedure sits past
// 128 GiB. First-touch accounting is indexed by the lines procedures
// occupy, not by the address span, so every mode must succeed with a
// small heap. The move is a multiple of the cache size and no two
// procedures share a line, so each mode must also print exactly what it
// prints for the packed link-order layout.
func TestSparseLayoutRuns(t *testing.T) {
	dir := t.TempDir()
	procs := make([]program.Procedure, 12)
	for i := range procs {
		procs[i] = program.Procedure{Name: fmt.Sprintf("p%02d", i), Size: 32 * (3 + 5*i%17)}
	}
	prog := program.MustNew(procs)
	tr := &trace.Trace{}
	for i := 0; i < 400; i++ {
		tr.Append(trace.Event{Proc: program.ProcID((i * 7) % len(procs)), Repeat: int32(1 + i%3)})
	}
	dense := program.DefaultLayout(prog)
	sparse := dense.Clone()
	last := program.ProcID(len(procs) - 1)
	sparse.SetAddr(last, sparse.Addr(last)+8192<<24)

	progPath := writeFile(t, dir, "p.prog", prog.WriteDescription)
	tracePath := writeFile(t, dir, "p.trace", tr.WriteBinary)
	densePath := writeFile(t, dir, "dense.layout", dense.WriteLayout)
	sparsePath := writeFile(t, dir, "sparse.layout", sparse.WriteLayout)

	modes := [][]string{
		nil,
		{"-assoc", "2"},
		{"-classify"},
		{"-sample"},
		{"-static-bounds"},
		{"-batch", "1"},
	}
	for _, mode := range modes {
		name := strings.Join(mode, " ")
		run := func(layouts string) string {
			stats := filepath.Join(dir, "report.json")
			args := append([]string{"-prog", progPath, "-trace", tracePath, "-layout", layouts, "-stats", stats}, mode...)
			out, code := runCachesim(t, args...)
			if code != 0 {
				t.Fatalf("mode %q layouts %s: exit %d:\n%s", name, layouts, code, out)
			}
			f, err := os.Open(stats)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var rep report.Report
			if err := json.NewDecoder(f).Decode(&rep); err != nil {
				t.Fatal(err)
			}
			if rep.Alloc == nil || rep.Alloc.TotalAllocBytes > 64<<20 {
				t.Fatalf("mode %q layouts %s: allocation %+v, want under 64 MiB", name, layouts, rep.Alloc)
			}
			return out
		}
		if got, want := run(sparsePath), run(densePath); got != want {
			t.Errorf("mode %q: sparse layout printed\n%s\nwant, as for the packed layout,\n%s", name, got, want)
		}
		// Several layouts score in one batched walk.
		both := sparsePath + "," + densePath
		out := run(both)
		if strings.Count(out, "== ") != 2 {
			t.Errorf("mode %q: two-layout run printed\n%s", name, out)
		}
	}
}
