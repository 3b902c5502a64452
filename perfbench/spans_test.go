package main

import (
	"strings"
	"testing"
	"time"
)

func sp(name string, start, end time.Duration, parent int) span {
	return span{Name: name, Start: start, End: end, Parent: parent, Job: -1}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp("pass", 0, 100, -1),
		sp("job", 5, 95, 0),
		sp("trg.build", 10, 30, 1),
		sp("core.place", 40, 50, 1),
		sp("inner", 42, 45, 3),
		sp("job", 96, 99, 0),
	}
	want := []time.Duration{100 - 90 - 3, 90 - 20 - 10, 20, 10 - 3, 3, 3}
	got := selfTimes(spans)
	var total time.Duration
	for i := range spans {
		if got[i] != want[i] {
			t.Errorf("self(%d %s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
		total += got[i]
	}
	// Self times partition the root's wall time.
	if total != 100 {
		t.Errorf("self times sum to %v, want the root's 100", total)
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("checkSpans: %v", err)
	}
	if r := rootOf(spans, 4); r != 0 {
		t.Errorf("rootOf(4) = %d, want 0", r)
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	spans := []span{
		sp("a", 0, 10, -1), sp("b", 5, 20, -1), sp("c", 30, 40, -1), sp("d", 35, 60, -1),
	}
	// Union [0,20) ∪ [30,60) clipped to [2,50): 18 + 20.
	if got := covered(spans, []int{3, 1, 0, 2}, 2, 50); got != 38 {
		t.Errorf("covered = %v, want 38", got)
	}
}

func TestCheckSpansRejects(t *testing.T) {
	for _, c := range []struct {
		spans []span
		want  string
	}{
		{[]span{sp("pass", 0, 10, -1), sp("job", 5, 11, 0)}, "escapes"},
		{[]span{sp("pass", 0, 10, -1), sp("a", 1, 5, 0), sp("b", 4, 6, 0)}, "overlaps"},
		{[]span{sp("pass", 0, -1, -1)}, "not closed"},
	} {
		err := checkSpans(c.spans)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkSpans(%v) = %v, want an error containing %q", c.spans, err, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.begin("pass", -1, -1), 1, func() { ran = true })
	if !ran {
		t.Fatal("nil tracer skipped the call")
	}
}
