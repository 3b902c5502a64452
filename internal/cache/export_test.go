package cache

import (
	"repro/internal/program"
	"repro/internal/trace"
)

// Oracle access for the differential tests in the external cache_test
// package: the retained general loops the compiled replay engine must
// agree with byte-for-byte.

// RunTraceOracle exposes the general RunTrace loop.
func (s *Sim) RunTraceOracle(layout *program.Layout, tr *trace.Trace) Stats {
	return s.runTraceOracle(layout, tr)
}

// RunTraceClassifiedOracle exposes the general classification loop.
var RunTraceClassifiedOracle = runTraceClassifiedOracle

// RunTraceTLBOracle exposes the general iTLB loop.
var RunTraceTLBOracle = runTraceTLBOracle

// CollapseLimit exposes the largest self-conflict-free span for tests
// pinning the fast-path/fallback boundary.
func (s *Sim) CollapseLimit() int64 { return s.limit }
