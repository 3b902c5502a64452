package cache

import (
	"sort"

	"repro/internal/program"
	"repro/internal/trace"
)

// MissClass categorizes a cache miss.
type MissClass int

// The three C's of cache-miss classification.
const (
	// MissCold is the first reference ever to a line (compulsory).
	MissCold MissClass = iota
	// MissCapacity would miss even in a fully-associative LRU cache of
	// the same capacity: the working set simply does not fit.
	MissCapacity
	// MissConflict hits in the fully-associative cache but misses in the
	// simulated one: an artifact of the address mapping, i.e. exactly the
	// class of misses code placement can remove.
	MissConflict
)

// String returns the conventional name of the class.
func (c MissClass) String() string {
	switch c {
	case MissCold:
		return "cold"
	case MissCapacity:
		return "capacity"
	case MissConflict:
		return "conflict"
	}
	return "unknown"
}

// ClassifiedStats extends Stats with a miss breakdown and per-procedure
// attribution.
type ClassifiedStats struct {
	Stats
	// Cold, Capacity and Conflict partition Stats.Misses.
	Cold, Capacity, Conflict int64
	// PerProc[p] counts the misses suffered while fetching procedure p.
	PerProc []int64
}

// fullyAssoc is an LRU stack simulating a fully-associative cache of
// capacity lines; used as the classification oracle.
type fullyAssoc struct {
	capacity int
	pos      map[int64]int // line address → index in stack
	stack    []int64       // MRU first
}

func newFullyAssoc(capacity int) *fullyAssoc {
	return &fullyAssoc{capacity: capacity, pos: make(map[int64]int)}
}

// access returns whether the line hit, updating LRU state.
func (f *fullyAssoc) access(lineAddr int64) bool {
	if idx, ok := f.pos[lineAddr]; ok {
		// Move to front.
		copy(f.stack[1:idx+1], f.stack[:idx])
		f.stack[0] = lineAddr
		for i := 0; i <= idx; i++ {
			f.pos[f.stack[i]] = i
		}
		return true
	}
	if len(f.stack) < f.capacity {
		f.stack = append(f.stack, 0)
	} else {
		delete(f.pos, f.stack[len(f.stack)-1])
	}
	copy(f.stack[1:], f.stack[:len(f.stack)-1])
	f.stack[0] = lineAddr
	for i := range f.stack {
		f.pos[f.stack[i]] = i
	}
	return false
}

// RunTraceClassified replays tr like RunTrace but additionally classifies
// every miss as cold, capacity, or conflict and attributes misses to the
// procedure being fetched. It is slower than RunTrace (it runs a
// fully-associative shadow cache); use it for analysis, not for the
// randomized-placement sweeps. The replay runs through the compiled
// engine (RunCompiledClassified); callers classifying one trace against
// many layouts should compile the trace once and call that directly.
func RunTraceClassified(cfg Config, layout *program.Layout, tr *trace.Trace) (ClassifiedStats, error) {
	cs, _, err := RunCompiledClassified(cfg, CompileTrace(layout.Program(), tr), layout)
	return cs, err
}

// RunCompiledClassified replays a precompiled trace with miss
// classification, returning the classified statistics (byte-identical to
// RunTraceClassified on the source trace) plus the replay engine counters.
//
// Every line goes through the kernel's span walk (kernel.go) one at a
// time, next to the fully-associative shadow, so the residency memo does
// not apply: the shadow must see every reference. Repeat collapsing does:
// the shadow has the same capacity as the simulated cache
// (Config.NumLines), so a span within the collapse limit fits the shadow
// too — iterations 2..r hit in both caches, produce no misses to classify,
// and leave both LRU states as iteration 1 left them. A miss is cold
// exactly when the simulator counts it cold.
func RunCompiledClassified(cfg Config, ct *CompiledTrace, layout *program.Layout) (ClassifiedStats, ReplayStats, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return ClassifiedStats{}, ReplayStats{}, err
	}
	sim.prepare(ct, layout)
	cs := ClassifiedStats{PerProc: make([]int64, ct.prog.NumProcs())}
	shadow := newFullyAssoc(cfg.NumLines())
	l := &sim.l
	for i, c := range ct.classOf {
		p := sim.tab[c]
		proc := ct.classes.proc[c]
		r := int64(ct.reps[i])
		l.stats.Refs += r * p.span
		l.replay.Events++
		iters := int64(1)
		if r > 1 {
			iters = collapse(&l.replay, r, p.span, sim.limit)
		}
		for ; iters > 0; iters-- {
			line := placed{first: p.first, set: p.set, span: 1, seenOff: p.seenOff}
			for ; line.first < p.first+p.span; line.first++ {
				faHit := shadow.access(line.first)
				misses, cold := l.stats.Misses, l.stats.Cold
				sim.span(l, &line, 1)
				if line.set++; line.set == sim.sets {
					line.set = 0
				}
				if l.stats.Misses == misses {
					continue
				}
				cs.PerProc[proc]++
				switch {
				case l.stats.Cold > cold:
					cs.Cold++
				case faHit:
					cs.Conflict++
				default:
					cs.Capacity++
				}
			}
		}
	}
	cs.Stats = sim.Stats()
	return cs, sim.Replay(), nil
}

// TopMissProcs returns the n procedures with the most attributed misses,
// most first.
func (cs *ClassifiedStats) TopMissProcs(n int) []program.ProcID {
	ids := make([]program.ProcID, 0, len(cs.PerProc))
	for p, m := range cs.PerProc {
		if m > 0 {
			ids = append(ids, program.ProcID(p))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if cs.PerProc[ids[i]] != cs.PerProc[ids[j]] {
			return cs.PerProc[ids[i]] > cs.PerProc[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
