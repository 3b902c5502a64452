package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the tracer: a set-up or pass
// (root), a job, or one call into a layer.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Job    int           `json:"job"`    // job id shared by a job's spans, -1 outside jobs
}

// tracer keeps spans in memory for the whole run. A nil *tracer records
// nothing, so the untraced run calls the same code with no span cost
// beyond a nil check.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin)
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent, job int, f func()) {
	id := t.begin(name, parent, job)
	f()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the spans ids, clipped to
// [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		a, b := spans[id].Start, spans[id].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// checkSpans verifies that every span is closed and lies inside its
// parent, and that siblings do not overlap: the conditions under which
// self times partition each root's wall time exactly.
func checkSpans(spans []span) error {
	last := make(map[int]time.Duration) // parent → end of its latest child
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) not closed", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) escapes its parent %s", i, s.Name, p.Name)
		}
		if end, ok := last[s.Parent]; ok && s.Start < end {
			return fmt.Errorf("span %d (%s) overlaps a sibling under %s", i, s.Name, p.Name)
		}
		last[s.Parent] = s.End
	}
	return nil
}

// rootOf returns the index of the root span above span i.
func rootOf(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return i
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
