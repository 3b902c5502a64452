package trg

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// touchQ is one Q step as the builder takes it: report each block
// interleaved since id's previous reference to fn (when non-nil), then
// touch id.
func touchQ(q *denseQueue, id BlockID, size int, fn func(between BlockID)) {
	for _, b := range q.between(id, nil) {
		if fn != nil {
			fn(b)
		}
	}
	q.touch(id, size, 0)
}

// blocks returns the members oldest-first.
func (q *denseQueue) blocks() []BlockID {
	out := make([]BlockID, 0, q.count)
	for id := q.head; id >= 0; id = q.next[id] {
		out = append(out, id)
	}
	return out
}

// TotalSize returns the summed byte size of the blocks in Q.
func (q *denseQueue) TotalSize() int { return q.totSize }

// front returns the oldest member, or ok=false when Q is empty.
func (q *denseQueue) front() (id BlockID, ok bool) { return q.head, q.head >= 0 }

// pairsOf lists, in (r,s) order, every pair {r,s} with D(p,{r,s}) > 0
// among blocks [0, ids).
func pairsOf(db *PairDB, p BlockID, ids int) [][2]BlockID {
	var out [][2]BlockID
	for r := BlockID(0); r < BlockID(ids); r++ {
		for s := r + 1; s < BlockID(ids); s++ {
			if db.Count(p, r, s) > 0 {
				out = append(out, [2]BlockID{r, s})
			}
		}
	}
	return out
}

func TestTouchBasicOrdering(t *testing.T) {
	q := newDenseQueue(1<<20, 32)
	touchQ(q, 1, 10, nil)
	touchQ(q, 2, 10, nil)
	touchQ(q, 3, 10, nil)
	if got := q.blocks(); !reflect.DeepEqual(got, []BlockID{1, 2, 3}) {
		t.Errorf("Blocks = %v", got)
	}
	if q.Len() != 3 || q.TotalSize() != 30 {
		t.Errorf("Len=%d TotalSize=%d", q.Len(), q.TotalSize())
	}
}

func TestTouchReportsInterveningBlocks(t *testing.T) {
	q := newDenseQueue(1<<20, 32)
	for _, id := range []BlockID{1, 2, 3, 4} {
		touchQ(q, id, 10, nil)
	}
	var between []BlockID
	touchQ(q, 2, 10, func(b BlockID) { between = append(between, b) })
	if !reflect.DeepEqual(between, []BlockID{3, 4}) {
		t.Errorf("between = %v, want [3 4]", between)
	}
	// Old occurrence of 2 removed; new one at the back.
	if got := q.blocks(); !reflect.DeepEqual(got, []BlockID{1, 3, 4, 2}) {
		t.Errorf("Blocks = %v", got)
	}
	if q.Len() != 4 || q.TotalSize() != 40 {
		t.Errorf("Len=%d TotalSize=%d", q.Len(), q.TotalSize())
	}
}

func TestTouchNoPreviousReportsNothing(t *testing.T) {
	q := newDenseQueue(1<<20, 32)
	touchQ(q, 1, 10, nil)
	called := false
	touchQ(q, 2, 10, func(BlockID) { called = true })
	if called {
		t.Error("fn invoked for first reference")
	}
}

func TestEvictionKeepsSizeAtOrAboveBound(t *testing.T) {
	q := newDenseQueue(100, 32)
	// Five 30-byte blocks: after each Touch, evict oldest while remaining
	// size stays >= 100.
	for id := BlockID(1); id <= 5; id++ {
		touchQ(q, id, 30, nil)
	}
	// 5*30=150; removing one leaves 120 >= 100 → evict; removing another
	// leaves 90 < 100 → stop. Q should hold blocks 2..5.
	if got := q.blocks(); !reflect.DeepEqual(got, []BlockID{2, 3, 4, 5}) {
		t.Errorf("Blocks = %v, want [2 3 4 5]", got)
	}
	if q.TotalSize() != 120 {
		t.Errorf("TotalSize = %d, want 120", q.TotalSize())
	}
}

func TestEvictedBlockNotReported(t *testing.T) {
	q := newDenseQueue(50, 32)
	touchQ(q, 1, 40, nil) // will be evicted
	touchQ(q, 2, 40, nil) // 80 >= 50+40? removal leaves 40 < 50 → keep both
	touchQ(q, 3, 40, nil) // 120; removal of 1 leaves 80 >= 50 → evict 1
	if q.inQ[1] {
		t.Fatal("block 1 not evicted")
	}
	var between []BlockID
	touchQ(q, 2, 40, func(b BlockID) { between = append(between, b) })
	if !reflect.DeepEqual(between, []BlockID{3}) {
		t.Errorf("between = %v, want [3]", between)
	}
}

func TestHugeBlockAloneStays(t *testing.T) {
	q := newDenseQueue(100, 32)
	touchQ(q, 1, 500, nil)
	// A single block is never evicted even if larger than the bound.
	if !q.inQ[1] || q.Len() != 1 {
		t.Error("single oversized block evicted")
	}
	touchQ(q, 2, 10, nil)
	// Removing block 1 would leave 10 < 100, so it stays.
	if !q.inQ[1] {
		t.Error("oversized block evicted while bound not exceeded by remainder")
	}
}

func TestTouchPairs(t *testing.T) {
	q := newDenseQueue(1<<20, 32)
	for _, id := range []BlockID{7, 1, 2, 3} {
		touchQ(q, id, 10, nil)
	}
	db, err := NewPairDB(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	singles := q.between(7, nil)
	db.addBetween(7, singles)
	q.touch(7, 10, 0)
	if !reflect.DeepEqual(singles, []BlockID{1, 2, 3}) {
		t.Errorf("singles = %v", singles)
	}
	pairs := pairsOf(db, 7, 32)
	wantPairs := [][2]BlockID{{1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(pairs, wantPairs) {
		t.Errorf("pairs = %v, want %v", pairs, wantPairs)
	}
}

func TestTouchPairsNoPrevious(t *testing.T) {
	q := newDenseQueue(1<<20, 32)
	touchQ(q, 1, 10, nil)
	db, err := NewPairDB(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	btw := q.between(2, nil)
	if len(btw) != 0 {
		t.Error("single fn invoked")
	}
	db.addBetween(2, btw)
	if db.Len() != 0 {
		t.Error("pair fn invoked")
	}
}

// Invariants: uniqueness of members; total size consistent; most recent
// touch is always at the back; eviction bound respected.
func TestQueueInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bound := rng.Intn(500) + 50
		q := newDenseQueue(bound, 32)
		sizes := make(map[BlockID]int)
		for step := 0; step < 300; step++ {
			id := BlockID(rng.Intn(30))
			sz, ok := sizes[id]
			if !ok {
				sz = rng.Intn(100) + 1
				sizes[id] = sz
			}
			touchQ(q, id, sz, nil)

			blocks := q.blocks()
			if blocks[len(blocks)-1] != id {
				return false
			}
			seen := make(map[BlockID]bool)
			total := 0
			for _, b := range blocks {
				if seen[b] {
					return false
				}
				seen[b] = true
				total += sizes[b]
			}
			if total != q.TotalSize() {
				return false
			}
			// Eviction stopped correctly: removing the oldest (if more
			// than one member) must drop below the bound.
			if len(blocks) > 1 && total-sizes[blocks[0]] >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQueueFront(t *testing.T) {
	q := newDenseQueue(100, 32)
	if _, ok := q.front(); ok {
		t.Fatal("empty queue reported a front")
	}
	touchQ(q, 5, 10, nil)
	touchQ(q, 6, 10, nil)
	if id, ok := q.front(); !ok || id != 5 {
		t.Fatalf("front = %d,%v, want 5,true", id, ok)
	}
	touchQ(q, 5, 10, nil) // re-reference moves 5 to the back
	if id, ok := q.front(); !ok || id != 6 {
		t.Fatalf("front after re-touch = %d,%v, want 6,true", id, ok)
	}
}

func TestQueueCloneIsIndependentAndExact(t *testing.T) {
	q := newDenseQueue(50, 32)
	touchQ(q, 1, 20, nil)
	touchQ(q, 2, 20, nil)
	touchQ(q, 3, 20, nil)
	c := q.clone()
	if !reflect.DeepEqual(c.blocks(), q.blocks()) {
		t.Fatalf("clone order %v, want %v", c.blocks(), q.blocks())
	}
	if c.TotalSize() != q.TotalSize() || c.Len() != q.Len() {
		t.Fatalf("clone size/len %d/%d, want %d/%d",
			c.TotalSize(), c.Len(), q.TotalSize(), q.Len())
	}
	// Mutating the clone must not leak into the original, and the clone
	// must keep the original's bound (evicts on further touches).
	touchQ(c, 4, 20, nil)
	if q.inQ[4] {
		t.Fatal("touching the clone mutated the original")
	}
	if c.inQ[1] {
		t.Fatal("clone did not inherit the eviction bound")
	}
	if !q.inQ[1] {
		t.Fatal("original lost a member after clone mutation")
	}
}
