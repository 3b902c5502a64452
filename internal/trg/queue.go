// Package trg implements the paper's temporal relationship graphs: the
// ordered working set Q (Section 3), the simultaneous construction of
// TRG_select (procedure granularity) and TRG_place (chunk granularity,
// Section 4.1), and the pair database D(p,{r,s}) used by the
// set-associative extension (Section 6).
package trg

// BlockID is a code-block identifier at whatever granularity the caller
// tracks (program.ProcID for TRG_select, program.ChunkID for TRG_place).
type BlockID = int32

// denseQueue is the ordered set Q of recently referenced code blocks over a
// dense BlockID space [0, ids). Blocks are ordered oldest → newest through
// array links; each block appears at most once; the total byte size of the
// retained blocks is kept just above a bound (twice the cache size in the
// paper) by evicting the oldest entries. It also records each member's
// latest event index, which is all the sharded build's warm-up planner
// needs.
type denseQueue struct {
	bound, totSize, count int
	head, tail            int32 // block id, -1 when empty
	next, prev            []int32
	size                  []int // charged byte size per member
	inQ                   []bool
	last                  []int64 // event index of the member's latest touch
}

func newDenseQueue(bound, ids int) *denseQueue {
	return &denseQueue{
		bound: bound, head: -1, tail: -1,
		next: make([]int32, ids), prev: make([]int32, ids),
		size: make([]int, ids), inQ: make([]bool, ids),
		last: make([]int64, ids),
	}
}

// Len returns the number of blocks currently in Q.
func (q *denseQueue) Len() int { return q.count }

// clone returns an independent copy of Q: same bound, same members in the
// same order with the same charged sizes.
func (q *denseQueue) clone() *denseQueue {
	c := *q
	c.next = append([]int32(nil), q.next...)
	c.prev = append([]int32(nil), q.prev...)
	c.size = append([]int(nil), q.size...)
	c.inQ = append([]bool(nil), q.inQ...)
	c.last = append([]int64(nil), q.last...)
	return &c
}

// reset empties Q in place, keeping its bound and id space.
func (q *denseQueue) reset() {
	clear(q.inQ)
	q.head, q.tail, q.count, q.totSize = -1, -1, 0, 0
}

// between appends to buf, oldest first, the blocks that occur after the
// previous reference to id — the blocks interleaved between two
// consecutive references to id (Section 3). Nothing is appended when id is
// not in Q.
func (q *denseQueue) between(id BlockID, buf []BlockID) []BlockID {
	if !q.inQ[id] {
		return buf
	}
	for b := q.next[id]; b >= 0; b = q.next[b] {
		buf = append(buf, b)
	}
	return buf
}

// touch processes the next trace reference to block id (of the given byte
// size), made at event index idx, per Section 3: any previous occurrence
// of id is removed, id is appended at the newest end, and the oldest
// members are evicted while removal keeps the total size of the remaining
// blocks at or above the bound. ("We remove the oldest members of Q until
// the removal of the next least-recently-used identifier would cause the
// total size of remaining code blocks in Q to be less than twice the cache
// size.") A single member is never evicted, however large.
func (q *denseQueue) touch(id BlockID, sz int, idx int64) {
	if q.inQ[id] {
		p, n := q.prev[id], q.next[id]
		if p >= 0 {
			q.next[p] = n
		} else {
			q.head = n
		}
		if n >= 0 {
			q.prev[n] = p
		} else {
			q.tail = p
		}
		q.totSize -= q.size[id]
		q.count--
	}
	q.prev[id], q.next[id] = q.tail, -1
	if q.tail >= 0 {
		q.next[q.tail] = id
	} else {
		q.head = id
	}
	q.tail = id
	q.inQ[id] = true
	q.size[id] = sz
	q.last[id] = idx
	q.totSize += sz
	q.count++
	for q.count > 1 {
		h := q.head
		hs := q.size[h]
		if q.totSize-hs < q.bound {
			return
		}
		q.totSize -= hs
		q.inQ[h] = false
		n := q.next[h]
		q.head = n
		if n >= 0 {
			q.prev[n] = -1
		} else {
			q.tail = -1
		}
		q.count--
	}
}

// frontLast returns the latest-touch event index of the oldest member.
// Replaying the trace from that reference reconstructs Q exactly.
func (q *denseQueue) frontLast() (int64, bool) {
	if q.head < 0 {
		return 0, false
	}
	return q.last[q.head], true
}
