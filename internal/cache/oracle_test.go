package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// The reference loops the replay kernel is differentially tested against
// byte for byte. They expand every activation into its full reference
// stream and run it through naiveCache, which shares no code with the
// kernel. export_test.go re-exports them to the external cache_test
// package.

// naiveCache is the reference set model: each set is an MRU-first list of
// line addresses evicted from the back — LRU at any associativity,
// direct-mapped at one way — and a miss is cold when its line was never
// referenced before.
type naiveCache struct {
	assoc int
	sets  [][]int64
	seen  map[int64]bool
	st    Stats
}

func newNaiveCache(cfg Config) *naiveCache {
	return &naiveCache{assoc: cfg.Assoc, sets: make([][]int64, cfg.NumSets()), seen: make(map[int64]bool)}
}

// access references line ln and reports whether it hit.
func (c *naiveCache) access(ln int64) bool {
	c.st.Refs++
	idx := ln % int64(len(c.sets))
	set := c.sets[idx]
	at := -1
	for i, tag := range set {
		if tag == ln {
			at = i
		}
	}
	hit := at >= 0
	if !hit {
		c.st.Misses++
		if !c.seen[ln] {
			c.seen[ln] = true
			c.st.Cold++
		}
		if len(set) < c.assoc {
			set = append(set, 0)
		}
		at = len(set) - 1
	}
	copy(set[1:at+1], set[:at])
	set[0] = ln
	c.sets[idx] = set
	return hit
}

// lines calls visit on every line reference tr makes placed by layout, in
// order: each activation fetches every line overlapping its placed extent
// once per repeat.
func lines(lineBytes int64, layout *program.Layout, tr *trace.Trace, visit func(p program.ProcID, ln int64)) {
	prog := layout.Program()
	for _, e := range tr.Events {
		base := int64(layout.Addr(e.Proc))
		first := base / lineBytes
		last := (base + int64(e.ExtentBytes(prog)) - 1) / lineBytes
		for r := e.Repeats(); r > 0; r-- {
			for ln := first; ln <= last; ln++ {
				visit(e.Proc, ln)
			}
		}
	}
}

// runTraceOracle replays tr placed by layout through a fresh naiveCache of
// the simulator's geometry; the simulator itself is not touched.
func (s *Sim) runTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	c := newNaiveCache(s.cfg)
	lines(s.lineBytes, layout, tr, func(_ program.ProcID, ln int64) { c.access(ln) })
	return c.st
}

// runTraceClassifiedOracle is the reference classification loop: the
// naive cache beside a fully-associative shadow of the same capacity.
func runTraceClassifiedOracle(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	if err := cfg.Validate(); err != nil {
		return ClassifiedStats{}, err
	}
	c := newNaiveCache(cfg)
	cs := ClassifiedStats{PerProc: make([]int64, layout.Program().NumProcs())}
	shadow := newFullyAssoc(cfg.NumLines())
	lines(int64(cfg.LineBytes), layout, tr, func(p program.ProcID, ln int64) {
		faHit := shadow.access(ln)
		cold := c.st.Cold
		if c.access(ln) {
			return
		}
		cs.PerProc[p]++
		switch {
		case c.st.Cold > cold:
			cs.Cold++
		case faHit:
			cs.Conflict++
		default:
			cs.Capacity++
		}
	})
	cs.Stats = c.st
	return cs, nil
}

// runTraceTLBOracle is the original iTLB loop, retained verbatim as the
// reference the compiled engine is differentially tested against.
func runTraceTLBOracle(cfg TLBConfig, layout *program.Layout, tr *trace.Trace) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	prog := layout.Program()
	tlb := newFullyAssoc(cfg.Entries)
	var st Stats
	pb := cfg.PageBytes
	for _, e := range tr.Events {
		start := layout.Addr(e.Proc)
		end := start + e.ExtentBytes(prog) - 1
		for pg := start / pb; pg <= end/pb; pg++ {
			st.Refs++
			if !tlb.access(int64(pg)) {
				st.Misses++
			}
		}
	}
	return st, nil
}
