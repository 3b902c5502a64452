package main

import (
	"repro/internal/cache"
	"repro/internal/program"
	"repro/internal/trace"
)

// refStats is the benchmark's own reference cache model, independent of the
// cache package's engines: it walks tr placed by l one line reference at a
// time, with no compilation and no repeat collapsing. The reference stream
// follows (*cache.Sim).RunTrace: each activation fetches every line that
// overlaps [addr, addr+extent), in address order, once per repeat. Each
// set is an MRU-first list of line addresses evicted from the back, which
// is LRU for any associativity and direct-mapped at one way. A miss is cold
// when its line was never referenced before.
func refStats(cfg cache.Config, l *program.Layout, tr *trace.Trace) cache.Stats {
	prog := l.Program()
	lineBytes := int64(cfg.LineBytes)
	numSets := int64(cfg.NumSets())
	sets := make([][]int64, numSets)
	seen := make([]bool, (int64(l.Extent())+lineBytes-1)/lineBytes)
	var st cache.Stats
	for _, e := range tr.Events {
		base := int64(l.Addr(e.Proc))
		first := base / lineBytes
		last := (base + int64(e.ExtentBytes(prog)) - 1) / lineBytes
		for r := 0; r < e.Repeats(); r++ {
			for line := first; line <= last; line++ {
				st.Refs++
				set := sets[line%numSets]
				hit := -1
				for i, tag := range set {
					if tag == line {
						hit = i
						break
					}
				}
				if hit < 0 {
					st.Misses++
					if !seen[line] {
						seen[line] = true
						st.Cold++
					}
					if len(set) < cfg.Assoc {
						set = append(set, 0)
					}
					hit = len(set) - 1
				}
				copy(set[1:hit+1], set[:hit])
				set[0] = line
				sets[line%numSets] = set
			}
		}
	}
	return st
}
