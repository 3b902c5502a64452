package cache

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/program"
)

// This file is the replay kernel every exact engine runs through: Sim is
// one lane of it, BatchSim loops it over K lanes. A lane walks a compiled
// trace against a per-class table (placed) that resolves each activation
// class to its first line, first set, line span and first-touch slots
// under one layout, so the walk never looks at a byte address.
//
// Two shortcuts make the walk cheaper than the reference stream, and both
// leave every counter byte-identical to it:
//
//   - Repeat collapsing (DESIGN.md §4c). A span of at most NumLines
//     consecutive lines puts at most Assoc of them in any set, so it
//     cannot evict itself: iterations 2..r of an activation hit on every
//     reference and leave the state as iteration 1 left it.
//   - The class-residency memo (§4h). Every state change — a miss, or an
//     LRU hit that promotes a way other than the MRU one — stamps its
//     set's block (1<<blockShift sets) with a fresh value of the kernel's
//     version counter; a DM hit or an MRU hit changes nothing and stamps
//     nothing. A full walk of a conflict-free class leaves, in each of its
//     sets, its own lines on top in reverse walk order; walking it again
//     from exactly that state hits every reference and restores the same
//     order. So after each full walk the class records the counter, and
//     while no block covering its sets carries a later stamp the next
//     activation settles as r·span hits without touching the state.
//     Block granularity only costs skips, never soundness.

// blockShift sets the residency memo's invalidation granularity:
// 1<<blockShift sets per version block. Spans are typically a few lines,
// so a residency check reads one or two block versions.
const blockShift = 5

// placed is one activation class resolved against one layout.
type placed struct {
	first   int64 // first line (line-granular address)
	set     int64 // set of the first line
	span    int64 // consecutive lines referenced per iteration
	seenOff int64 // line ln's first-touch slot is ln+seenOff
}

// kernel holds one geometry's constants and the counters shared by every
// lane it walks.
type kernel struct {
	lineBytes int64
	sets      int64
	assoc     int64
	// limit is the longest self-conflict-free span: NumLines.
	limit   int64
	nblocks int64
	// wver is the last state-change version handed out. It only grows,
	// across lanes too, so a stale residency stamp can never match.
	wver int64
	// epoch stamps first touches; bumping it retires every stamp at once.
	epoch uint32
}

func newKernel(cfg Config) kernel {
	sets := int64(cfg.NumSets())
	return kernel{
		lineBytes: int64(cfg.LineBytes),
		sets:      sets,
		assoc:     int64(cfg.Assoc),
		limit:     int64(cfg.NumLines()),
		nblocks:   (sets + 1<<blockShift - 1) >> blockShift,
		epoch:     1,
	}
}

// lane is one simulated cache state.
type lane struct {
	ways   []int64  // sets×assoc tags, MRU first within a set, -1 empty
	bver   []int64  // per set block: version of its last state change
	res    []int64  // per class: version right after its last full walk
	seen   []uint32 // per first-touch slot: epoch of the line's first touch
	stats  Stats
	replay ReplayStats
}

// invalidate retires every residency stamp of the lanes whose block
// versions bver holds, by stamping every block with a fresh version.
func (k *kernel) invalidate(bver []int64) {
	k.wver++
	for i := range bver {
		bver[i] = k.wver
	}
}

// newEpoch starts a fresh first-touch epoch over the given stamp stores.
// Only when the counter wraps are the stores actually cleared.
func (k *kernel) newEpoch(stores ...[]uint32) {
	k.epoch++
	if k.epoch == 0 {
		for _, s := range stores {
			clear(s[:cap(s)])
		}
		k.epoch = 1
	}
}

// walk replays events [lo, hi) of ct on l, placed by tab, and returns how
// many events it walked: all of them, or through the first one that lifts
// l's misses above budget.
func (k *kernel) walk(l *lane, tab []placed, ct *CompiledTrace, lo, hi int, budget int64) int {
	reps := ct.reps[lo:hi]
	res, bver := l.res, l.bver
	limit, multi := k.limit, k.nblocks > 1
	rs := l.replay
	var refs int64
	n := hi - lo
	for i, c := range ct.classOf[lo:hi] {
		p := &tab[c]
		r, span := int64(reps[i]), p.span
		refs += r * span
		iters := int64(1)
		if r > 1 {
			iters = collapse(&rs, r, span, limit)
		}
		if span > limit {
			k.span(l, p, iters)
		} else {
			// wver unchanged since the stamp means no state change
			// anywhere: the one-compare steady state. Otherwise scan the
			// covering blocks and, on success, re-stamp.
			if v := res[c]; v == k.wver || (multi && k.clean(bver, v, p.set, span)) {
				res[c] = k.wver
				continue
			}
			k.span(l, p, 1)
			res[c] = k.wver
		}
		if l.stats.Misses > budget {
			n = i + 1
			break
		}
	}
	l.stats.Refs += refs
	rs.Events += int64(n)
	l.replay = rs
	return n
}

// collapse records a repeated activation (r > 1) over span lines in rs
// and returns how many iterations must be walked: one when the span fits
// in limit lines and the repeats collapse, r when it can self-evict.
func collapse(rs *ReplayStats, r, span, limit int64) int64 {
	if span > limit {
		rs.FallbackEvents++
		return r
	}
	rs.FastEvents++
	rs.CollapsedRepeats += r - 1
	rs.CollapsedRefs += (r - 1) * span
	return 1
}

// clean reports whether no set block covering span lines from set s0
// changed after version v.
func (k *kernel) clean(bver []int64, v, s0, span int64) bool {
	end := s0 + span - 1
	switch {
	case span >= k.sets:
		return blocksClean(bver, v, 0, k.sets-1)
	case end >= k.sets:
		return blocksClean(bver, v, s0, k.sets-1) && blocksClean(bver, v, 0, end-k.sets)
	}
	return blocksClean(bver, v, s0, end)
}

// blocksClean reports whether no block covering sets [s0, s1] changed
// after version v.
func blocksClean(bver []int64, v, s0, s1 int64) bool {
	for b := s0 >> blockShift; b <= s1>>blockShift; b++ {
		if bver[b] > v {
			return false
		}
	}
	return true
}

// span walks p's lines iters times on l. A reference that finds its line
// in the MRU way changes nothing; any other promotes or installs its line
// at MRU (evicting the LRU way on a miss) and stamps the set's block. A
// miss on a line not yet touched this epoch also counts as cold.
// References are counted by the caller. The lines are walked in runs of
// consecutive sets up to the end of the set array, and direct-mapped
// runs, where the MRU way is the only way, take a loop of their own.
func (k *kernel) span(l *lane, p *placed, iters int64) {
	assoc, sets, epoch := k.assoc, k.sets, k.epoch
	bver, seen := l.bver, l.seen
	misses, cold, wver := l.stats.Misses, l.stats.Cold, k.wver
	for ; iters > 0; iters-- {
		ln, s, left := p.first, p.set, p.span
		for left > 0 {
			n := min(left, sets-s)
			run := l.ways[s*assoc : (s+n)*assoc]
			if assoc == 1 {
				for i, tag := range run {
					x := ln + int64(i)
					if tag == x {
						continue
					}
					run[i] = x
					misses++
					if slot := x + p.seenOff; seen[slot] != epoch {
						seen[slot] = epoch
						cold++
					}
					wver++
					bver[(s+int64(i))>>blockShift] = wver
				}
			} else {
				for i := int64(0); i < n; i++ {
					w, x := run[i*assoc:(i+1)*assoc], ln+i
					if w[0] == x {
						continue
					}
					j := 1
					for j < len(w) && w[j] != x {
						j++
					}
					if j == len(w) {
						j--
						misses++
						if slot := x + p.seenOff; seen[slot] != epoch {
							seen[slot] = epoch
							cold++
						}
					}
					for ; j > 0; j-- {
						w[j] = w[j-1]
					}
					w[0] = x
					wver++
					bver[(s+i)>>blockShift] = wver
				}
			}
			ln, left, s = ln+n, left-n, 0
		}
	}
	l.stats.Misses, l.stats.Cold, k.wver = misses, cold, wver
}

// place resolves every class of cls against layout into tab, numbering
// first-touch slots by x, which must cover every line the classes reach.
func (k *kernel) place(tab []placed, cls *classTable, layout *program.Layout, x *lineIndex) {
	for c, p := range cls.proc {
		a := int64(layout.Addr(p))
		first := a / k.lineBytes
		i := x.find(first)
		tab[c] = placed{
			first:   first,
			set:     first % k.sets,
			span:    (a+int64(cls.ext[c])-1)/k.lineBytes - first + 1,
			seenOff: x.base[i] - x.lo[i],
		}
	}
}

// lineIndex numbers the lines a layout occupies with compact first-touch
// slots, so the stamp stores grow with the program, not with the address
// span: sorted disjoint line intervals [lo[i], hi[i]) whose lines take
// slots base[i], base[i]+1, and so on. A line two procedures share gets
// one slot.
type lineIndex struct{ lo, hi, base []int64 }

// slots returns the number of slots the index numbers.
func (x *lineIndex) slots() int64 {
	m := len(x.lo) - 1
	if m < 0 {
		return 0
	}
	return x.base[m] + x.hi[m] - x.lo[m]
}

// find returns the interval holding line ln, or -1.
func (x *lineIndex) find(ln int64) int {
	i := sort.Search(len(x.lo), func(i int) bool { return x.hi[i] > ln })
	if i == len(x.lo) || x.lo[i] > ln {
		return -1
	}
	return i
}

// equal reports whether x and y number the same intervals.
func (x *lineIndex) equal(y *lineIndex) bool {
	return slices.Equal(x.lo, y.lo) && slices.Equal(x.hi, y.hi)
}

// indexer builds line indexes from candidate intervals in reused buffers.
type indexer struct {
	lo, hi []int64
	ord    []int32
}

// reach sets the candidates to one interval per procedure the classes
// activate: its lines from its start to the end of its longest class.
func (b *indexer) reach(cls *classTable, layout *program.Layout, lineBytes int64) {
	b.lo, b.hi = b.lo[:0], b.hi[:0]
	for j, p := range cls.procs {
		a := int64(layout.Addr(p))
		b.lo = append(b.lo, a/lineBytes)
		b.hi = append(b.hi, (a+int64(cls.reach[j])-1)/lineBytes+1)
	}
}

// merge writes the union of the candidates into x, numbering slots in
// address order.
func (b *indexer) merge(x *lineIndex) {
	b.ord = b.ord[:0]
	for i := range b.lo {
		b.ord = append(b.ord, int32(i))
	}
	slices.SortFunc(b.ord, func(i, j int32) int { return cmp.Compare(b.lo[i], b.lo[j]) })
	x.lo, x.hi, x.base = x.lo[:0], x.hi[:0], x.base[:0]
	var n int64
	for _, i := range b.ord {
		lo, hi := b.lo[i], b.hi[i]
		if m := len(x.lo) - 1; m >= 0 && lo <= x.hi[m] {
			if hi > x.hi[m] {
				n += hi - x.hi[m]
				x.hi[m] = hi
			}
			continue
		}
		x.lo = append(x.lo, lo)
		x.hi = append(x.hi, hi)
		x.base = append(x.base, n)
		n += hi - lo
	}
}
