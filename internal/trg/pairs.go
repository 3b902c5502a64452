package trg

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// MaxPairChunks is the largest tracked chunk space the pair database
// supports: a pair {r,s} is keyed by the two chunks' 16-bit dense ranks.
const MaxPairChunks = 1 << 16

// PairDB is the Section-6 temporal-relationship database for set-associative
// caches: D(p,{r,s}) estimates how many references to p would miss if p, r
// and s all occupied the same 2-way set, because both r and s intervene
// between consecutive references to p.
//
// The database covers a fixed set of tracked chunks, numbered by dense
// rank in ascending id order. Each tracked p owns one row table keyed by
// the packed ranks of {r,s}, so a lookup is one probe in p's own small
// table. Counts involving an untracked chunk are 0.
type PairDB struct {
	rank []int32          // BlockID → dense rank, -1 when untracked
	ids  []BlockID        // dense rank → BlockID
	rows []graph.RowTable // by rank of p
	buf  []uint32         // scratch ranks for addBetween
}

// NewPairDB creates an empty database over the blocks in [0, ids) for
// which track reports true (every block when track is nil). It fails when
// more than MaxPairChunks blocks are tracked.
func NewPairDB(ids int, track func(BlockID) bool) (*PairDB, error) {
	d := &PairDB{rank: make([]int32, ids)}
	n := 0
	for id := range d.rank {
		if track != nil && !track(BlockID(id)) {
			d.rank[id] = -1
			continue
		}
		d.rank[id] = int32(n)
		d.ids = append(d.ids, BlockID(id))
		n++
	}
	if n > MaxPairChunks {
		return nil, fmt.Errorf("trg: pair database would track %d chunks, more than its limit of %d", n, MaxPairChunks)
	}
	d.rows = make([]graph.RowTable, n)
	return d, nil
}

func (d *PairDB) rankOf(id BlockID) int32 {
	if id < 0 || int(id) >= len(d.rank) {
		return -1
	}
	return d.rank[id]
}

// pairKey packs two distinct ranks, smaller first.
func pairKey(r, s int32) uint32 {
	if r > s {
		r, s = s, r
	}
	return uint32(r)<<16 | uint32(s)
}

// Add increments D(p,{r,s}). It fails when p, r or s is untracked or r == s.
func (d *PairDB) Add(p, r, s BlockID) error {
	rp, rr, rs := d.rankOf(p), d.rankOf(r), d.rankOf(s)
	if rp < 0 || rr < 0 || rs < 0 || rr == rs {
		return fmt.Errorf("trg: pair D(%d,{%d,%d}) outside the tracked chunks", p, r, s)
	}
	d.rows[rp].Add(pairKey(rr, rs), 1)
	return nil
}

// addBetween increments D(p,{r,s}) for every unordered pair {r,s} drawn
// from the blocks interleaved between two consecutive references to p
// (Section 6: "we associate p with all possible selections of two
// identifiers from the identifiers currently in Q, up to any previous
// occurrence of p"). Every block must be tracked; Q holds only blocks of
// kept procedures, which are exactly the tracked ones.
func (d *PairDB) addBetween(p BlockID, between []BlockID) {
	if len(between) < 2 {
		return
	}
	ranks := d.buf[:0]
	for _, b := range between {
		ranks = append(ranks, uint32(d.rank[b]))
	}
	// Sorted ranks make every emitted key already ordered.
	slices.Sort(ranks)
	row := &d.rows[d.rank[p]]
	for i, r := range ranks {
		hi := r << 16
		for _, s := range ranks[i+1:] {
			row.Add(hi|s, 1)
		}
	}
	d.buf = ranks
}

// Count returns D(p,{r,s}).
func (d *PairDB) Count(p, r, s BlockID) int64 { return d.Row(p).Count(r, s) }

// Len returns the number of non-zero entries.
func (d *PairDB) Len() int {
	n := 0
	for i := range d.rows {
		n += d.rows[i].Len()
	}
	return n
}

// PairRow is the part of the database for one block p: D(p,{r,s}) over
// every pair. The zero PairRow counts 0 for every pair.
type PairRow struct {
	db *PairDB
	t  *graph.RowTable
}

// Row returns p's counts. It is empty when p is untracked or no pair ever
// intervened between two references to p.
func (d *PairDB) Row(p BlockID) PairRow {
	if rp := d.rankOf(p); rp >= 0 && d.rows[rp].Len() > 0 {
		return PairRow{db: d, t: &d.rows[rp]}
	}
	return PairRow{}
}

// Empty reports whether every count in the row is 0.
func (r PairRow) Empty() bool { return r.t == nil }

// Count returns D(p,{a,b}) for the row's p.
func (r PairRow) Count(a, b BlockID) int64 {
	if r.t == nil {
		return 0
	}
	ra, rb := r.db.rankOf(a), r.db.rankOf(b)
	if ra < 0 || rb < 0 || ra == rb {
		return 0
	}
	return r.t.Get(pairKey(ra, rb))
}

// Each calls fn once for every non-zero D(p,{a,b}) of the row's p, in
// table order; a and b are the pair's two blocks, the lower-ranked first.
// It decodes the row in place and allocates nothing.
func (r PairRow) Each(fn func(a, b BlockID, n int64)) {
	if r.t == nil {
		return
	}
	ids := r.db.ids
	r.t.Each(func(k uint32, n int64) { fn(ids[k>>16], ids[k&0xffff], n) })
}
