package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// The original replay loops, kept as the references the compiled replay
// engine is differentially tested against byte for byte. export_test.go
// re-exports them to the external cache_test package.

// runTraceOracle is the original general replay loop, retained verbatim as
// the reference implementation the compiled engine is differentially
// tested against: every activation expands its repeat count into
// individual Access calls.
func (s *Sim) runTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	s.Reset()
	prog := layout.Program()
	lb := s.lineBytes
	for _, e := range tr.Events {
		base := int64(layout.Addr(e.Proc))
		ext := int64(e.ExtentBytes(prog))
		first := base / lb
		last := (base + ext - 1) / lb
		for r := e.Repeats(); r > 0; r-- {
			for ln := first; ln <= last; ln++ {
				s.Access(ln * lb)
			}
		}
	}
	return s.stats
}

// runTraceClassifiedOracle is the original classification loop, retained
// verbatim as the reference the compiled engine is differentially tested
// against.
func runTraceClassifiedOracle(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return ClassifiedStats{}, err
	}
	prog := layout.Program()
	cs := ClassifiedStats{PerProc: make([]int64, prog.NumProcs())}
	shadow := newFullyAssoc(cfg.NumLines())
	seen := make(map[int64]bool)

	lb := int64(cfg.LineBytes)
	for _, e := range tr.Events {
		base := int64(layout.Addr(e.Proc))
		ext := int64(e.ExtentBytes(prog))
		first := base / lb
		last := (base + ext - 1) / lb
		for r := e.Repeats(); r > 0; r-- {
			for ln := first; ln <= last; ln++ {
				faHit := shadow.access(ln)
				hit := sim.Access(ln * lb)
				if hit {
					continue
				}
				cs.PerProc[e.Proc]++
				switch {
				case !seen[ln]:
					cs.Cold++
					seen[ln] = true
				case faHit:
					cs.Conflict++
				default:
					cs.Capacity++
				}
			}
		}
	}
	cs.Stats = sim.Stats()
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
