package staticcache

import (
	"sort"

	"repro/internal/program"
)

// Interval is the result of analyzing one layout: a sound bound on the
// miss count of cache.RunTrace for the modeled (program, trace, geometry),
// plus the classification census backing the bound-tightness tables. All
// counts are integers in miss/reference events, not rates, so comparisons
// against simulator statistics are exact — no float slop.
type Interval struct {
	// Refs is the exact reference count of the placed replay (equal to
	// cache.RunTrace's Stats.Refs for the same layout).
	Refs int64
	// Cold is the exact compulsory miss count: the number of distinct
	// cache lines the placed trace touches (equal to Stats.Cold).
	Cold int64
	// LowerMisses ≤ Stats.Misses ≤ UpperMisses for every run of the
	// modeled trace under the modeled geometry.
	LowerMisses int64
	UpperMisses int64
	// Reference-slot census, weighted by execution counts: always-hit
	// (guaranteed hits, including repeat iterations of self-conflict-free
	// activations), always-miss (guaranteed misses), first-miss (at most
	// one miss over the whole run), unclassified (no guarantee).
	RefsAlwaysHit    int64
	RefsAlwaysMiss   int64
	RefsFirstMiss    int64
	RefsUnclassified int64
}

// LowerRate returns LowerMisses/Refs (0 for an empty trace).
func (iv Interval) LowerRate() float64 {
	if iv.Refs == 0 {
		return 0
	}
	return float64(iv.LowerMisses) / float64(iv.Refs)
}

// UpperRate returns UpperMisses/Refs (0 for an empty trace).
func (iv Interval) UpperRate() float64 {
	if iv.Refs == 0 {
		return 0
	}
	return float64(iv.UpperMisses) / float64(iv.Refs)
}

// Width returns the interval width in miss-rate units.
func (iv Interval) Width() float64 { return iv.UpperRate() - iv.LowerRate() }

// ClassifiedFrac returns the fraction of references whose outcome the
// analysis bounded (everything but the unclassified bucket).
func (iv Interval) ClassifiedFrac() float64 {
	if iv.Refs == 0 {
		return 1
	}
	return 1 - float64(iv.RefsUnclassified)/float64(iv.Refs)
}

// Analyze places the model's activation classes by layout and runs the
// abstract fixpoint, returning the sound miss interval. The layout must
// place the model's program. Analyze does not mutate the model and may be
// called concurrently.
func (m *Model) Analyze(layout *program.Layout) Interval {
	if layout.Program() != m.prog {
		panic("staticcache: layout places a different program than the model")
	}
	lb := int64(m.cfg.LineBytes)
	numSets := int64(m.cfg.NumSets())
	assoc := uint8(m.cfg.Assoc)
	// collapseLimit mirrors the simulator's repeat-collapsing theorem: an
	// activation spanning at most NumLines consecutive lines cannot evict
	// itself, so iterations 2..r of a repeated activation hit on every
	// reference and leave the cache state unchanged.
	collapseLimit := int64(m.cfg.NumLines())

	nn := len(m.nodes)
	first := make([]int64, nn)
	span := make([]int64, nn)
	var refs int64
	for i := range m.nodes {
		n := &m.nodes[i]
		base := int64(layout.Addr(n.proc))
		first[i] = base / lb
		span[i] = (base+int64(n.ext)-1)/lb - first[i] + 1
		refs += n.execs * span[i]
	}

	// Compact index over touched lines: merge the placed spans into
	// disjoint line intervals (procedures may share boundary lines), then
	// number the covered lines 0..T-1. T is exactly the compulsory miss
	// count: the first touch of every line misses, and only touched lines
	// ever enter a cache state.
	type ivl struct{ lo, hi int64 }
	ivs := make([]ivl, 0, nn)
	for i := range m.nodes {
		ivs = append(ivs, ivl{first[i], first[i] + span[i] - 1})
	}
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].lo != ivs[b].lo {
			return ivs[a].lo < ivs[b].lo
		}
		return ivs[a].hi < ivs[b].hi
	})
	merged := ivs[:0]
	for _, v := range ivs {
		if k := len(merged); k > 0 && v.lo <= merged[k-1].hi+1 {
			if v.hi > merged[k-1].hi {
				merged[k-1].hi = v.hi
			}
			continue
		}
		merged = append(merged, v)
	}
	var total int64 // touched line count T
	for _, v := range merged {
		total += v.hi - v.lo + 1
	}
	// at[i] is the compact index of node i's first line: its lines take
	// at[i], at[i]+1, ... (a node's span lies inside one merged interval),
	// so the index grows with the touched lines, not the address span.
	// setOf and perSet give each index's cache set and each set's member
	// indices.
	starts := make([]int32, len(merged))
	setOf := make([]int32, total)
	perSet := make([][]int32, numSets)
	touches := make([]int64, total)
	next := int32(0)
	for j, v := range merged {
		starts[j] = next
		for ln := v.lo; ln <= v.hi; ln++ {
			s := int32(ln % numSets)
			setOf[next] = s
			perSet[s] = append(perSet[s], next)
			next++
		}
	}
	at := make([]int32, nn)
	for i := range m.nodes {
		j := sort.Search(len(merged), func(j int) bool { return merged[j].hi >= first[i] })
		at[i] = starts[j] + int32(first[i]-merged[j].lo)
		for k := int32(0); k < int32(span[i]); k++ {
			touches[at[i]+k] += m.nodes[i].execs
		}
	}
	// Structural persistence: a set whose touched lines all fit
	// (≤ associativity) can never evict, so each of its lines misses at
	// most once over the whole run — its cold miss.
	persistent := make([]bool, total)
	for s := range perSet {
		if len(perSet[s]) > 0 && len(perSet[s]) <= int(assoc) {
			for _, i := range perSet[s] {
				persistent[i] = true
			}
		}
	}

	iv := Interval{Refs: refs, Cold: total}
	if m.start < 0 || total == 0 {
		return iv
	}

	// Abstract states per class entry: dense byte arrays over the compact
	// line index. must[i] is an upper bound on line i's LRU age on every
	// path (255 = not guaranteed resident); may[i] is a lower bound on its
	// age on paths where it is resident (255 = resident on no path).
	// The joins are branchless byte ops: must-join is max (intersection,
	// oldest age wins), may-join is min (union, youngest age wins).
	must := make([][]uint8, nn)
	may := make([][]uint8, nn)
	reached := make([]bool, nn)
	blank := make([]uint8, total)
	for i := range blank {
		blank[i] = 255
	}
	alloc := func(n int32) {
		if must[n] == nil {
			must[n] = make([]uint8, total)
			may[n] = make([]uint8, total)
		}
	}

	// access applies the LRU transfer for one reference to compact line
	// index i in set s. Must (Ferdinand-style): lines provably younger
	// than l age by one; l becomes most-recent. May: lines possibly as
	// young as l age by one (true ages within a set are distinct, so a
	// line tied with l's lower bound is in truth strictly older and safe
	// to age); l becomes most-recent. 255 sentinels make the absent case
	// (treat l's age as the associativity) fall out of the unsigned
	// comparisons.
	access := func(mu, ma []uint8, i int32, s int32) {
		col := perSet[s]
		al := mu[i]
		for _, j := range col {
			if j == i {
				continue
			}
			if a := mu[j]; a != 255 && a < al {
				if a+1 >= assoc {
					mu[j] = 255
				} else {
					mu[j] = a + 1
				}
			}
		}
		mu[i] = 0
		ml := ma[i]
		for _, j := range col {
			if j == i {
				continue
			}
			if a := ma[j]; a != 255 && a <= ml {
				if a+1 >= assoc {
					ma[j] = 255
				} else {
					ma[j] = a + 1
				}
			}
		}
		ma[i] = 0
	}

	// selfEdge reports whether class n's exit must flow back into its own
	// entry: consecutive same-class events always do; repeated members do
	// unless the placed span is self-conflict-free (the collapse theorem
	// makes iterations 2..r no-ops on both state and misses).
	selfEdge := func(n int32) bool {
		nd := &m.nodes[n]
		return nd.selfSeq || (nd.selfRep && span[n] > collapseLimit)
	}

	// transfer runs class n's line sequence over the scratch state.
	transfer := func(n int32, mu, ma []uint8) {
		for k := int64(0); k < span[n]; k++ {
			i := at[n] + int32(k)
			access(mu, ma, i, setOf[i])
		}
	}

	join := func(dst, src []uint8, max bool) bool {
		changed := false
		if max {
			for i, v := range src {
				if v > dst[i] {
					dst[i] = v
					changed = true
				}
			}
		} else {
			for i, v := range src {
				if v < dst[i] {
					dst[i] = v
					changed = true
				}
			}
		}
		return changed
	}

	// Worklist fixpoint from the empty-cache start state. Termination:
	// joins move must ages only up and may ages only down, both over the
	// finite chain 0..assoc,absent, and a class re-enters the queue only
	// when its entry strictly changes.
	exitMu := make([]uint8, total)
	exitMa := make([]uint8, total)
	alloc(m.start)
	copy(must[m.start], blank)
	copy(may[m.start], blank)
	reached[m.start] = true
	queue := []int32{m.start}
	inQ := make([]bool, nn)
	inQ[m.start] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		inQ[n] = false
		copy(exitMu, must[n])
		copy(exitMa, may[n])
		transfer(n, exitMu, exitMa)
		succs := m.succs[n]
		push := func(t int32) {
			alloc(t)
			var changed bool
			if !reached[t] {
				reached[t] = true
				copy(must[t], exitMu)
				copy(may[t], exitMa)
				changed = true
			} else {
				changed = join(must[t], exitMu, true)
				if join(may[t], exitMa, false) {
					changed = true
				}
			}
			if changed && !inQ[t] {
				inQ[t] = true
				queue = append(queue, t)
			}
		}
		if selfEdge(n) {
			push(n)
		}
		for _, t := range succs {
			push(t)
		}
	}

	// Classification pass: replay each class's line sequence once from its
	// fixpoint entry state, classifying each slot before applying its
	// transfer. Guaranteed-hit credits and guaranteed-miss counts
	// accumulate per line so the per-line persistence credit can take the
	// max without double counting (hits and misses on distinct lines are
	// distinct events).
	ghits := make([]int64, total) // guaranteed hits per line
	lmiss := make([]int64, total) // guaranteed misses per line
	for n := int32(0); n < int32(nn); n++ {
		if !reached[n] {
			// Unreachable classes would mean the trace is not a path in
			// its own class graph — impossible by construction.
			panic("staticcache: unreached activation class")
		}
		nd := &m.nodes[n]
		copy(exitMu, must[n])
		copy(exitMa, may[n])
		// missW is the number of executions whose outcome the entry-state
		// classification governs: for self-conflict-free spans only the
		// first iteration of each activation can miss (collapse theorem),
		// so repeats are guaranteed hits regardless of classification.
		missW := nd.execs
		if span[n] <= collapseLimit {
			missW = nd.events
		}
		repeatHits := nd.execs - missW
		for k := int64(0); k < span[n]; k++ {
			i := at[n] + int32(k)
			switch {
			case exitMu[i] != 255: // always-hit
				ghits[i] += nd.execs
				iv.RefsAlwaysHit += nd.execs
			case exitMa[i] == 255: // always-miss
				ghits[i] += repeatHits
				lmiss[i] += missW
				iv.RefsAlwaysHit += repeatHits
				iv.RefsAlwaysMiss += missW
			case persistent[i]: // first-miss
				ghits[i] += repeatHits
				iv.RefsAlwaysHit += repeatHits
				iv.RefsFirstMiss += missW
			default:
				ghits[i] += repeatHits
				iv.RefsAlwaysHit += repeatHits
				iv.RefsUnclassified += missW
			}
			access(exitMu, exitMa, i, setOf[i])
		}
	}

	// Aggregate the bounds. Every touched line cold-misses at least once,
	// and a persistent line misses at most once, so the per-line credits
	// take the max of the slot-derived and line-derived guarantees.
	var hitCredit int64
	for i := int32(0); i < int32(total); i++ {
		lo := lmiss[i]
		if lo < 1 {
			lo = 1
		}
		iv.LowerMisses += lo
		gh := ghits[i]
		if persistent[i] {
			if c := touches[i] - 1; c > gh {
				gh = c
			}
		}
		hitCredit += gh
	}
	iv.UpperMisses = iv.Refs - hitCredit
	return iv
}
