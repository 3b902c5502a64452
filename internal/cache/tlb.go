package cache

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/trace"
)

// TLBConfig describes an instruction TLB: a fully-associative LRU array of
// page translations, the common organization for first-level iTLBs.
type TLBConfig struct {
	// Entries is the number of translations held. Default-free; must be
	// positive.
	Entries int
	// PageBytes is the page size. Must be positive.
	PageBytes int
}

// Validate checks the configuration.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 || c.PageBytes <= 0 {
		return fmt.Errorf("cache: non-positive TLB config %+v", c)
	}
	return nil
}

// RunTraceTLB replays the trace through an iTLB simulation: every page the
// executed extent of an activation touches is referenced in order. The
// paper's conclusion points at "other layers of the memory hierarchy" as
// the follow-on for temporal-ordering placement; the iTLB is the nearest
// such layer, and layouts that keep temporally related procedures on the
// same pages (see place.LinearizePageAware) reduce exactly these misses.
// The replay runs through the compiled engine (RunCompiledTLB); callers
// replaying one trace against many layouts should compile the trace once
// and call that directly.
func RunTraceTLB(cfg TLBConfig, layout *program.Layout, tr *trace.Trace) (Stats, error) {
	st, _, err := RunCompiledTLB(cfg, CompileTrace(layout.Program(), tr), layout)
	return st, err
}

// RunCompiledTLB replays a precompiled trace through the iTLB simulation,
// returning statistics byte-identical to RunTraceTLB on the source trace
// plus the replay engine counters. The TLB loop visits each page of an
// activation once (repeats do not re-reference pages), so there is nothing
// to collapse; the fast path instead short-circuits the dominant case of a
// single-page activation whose page is already most recently used —
// consecutive activations of co-paged procedures — avoiding the LRU
// stack's map lookup and move-to-front entirely (MRU re-reference leaves
// the stack unchanged).
func RunCompiledTLB(cfg TLBConfig, ct *CompiledTrace, layout *program.Layout) (Stats, ReplayStats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, ReplayStats{}, err
	}
	ct.checkProgram(layout)
	tlb := newFullyAssoc(cfg.Entries)
	var st Stats
	var rs ReplayStats
	pb := cfg.PageBytes
	for _, c := range ct.classOf {
		start := layout.Addr(ct.classes.proc[c])
		end := start + int(ct.classes.ext[c]) - 1
		firstPg, lastPg := start/pb, end/pb
		rs.Events++
		if firstPg == lastPg && len(tlb.stack) > 0 && tlb.stack[0] == int64(firstPg) {
			st.Refs++
			rs.FastEvents++
			continue
		}
		rs.FallbackEvents++
		for pg := firstPg; pg <= lastPg; pg++ {
			st.Refs++
			if !tlb.access(int64(pg)) {
				st.Misses++
			}
		}
	}
	return st, rs, nil
}
