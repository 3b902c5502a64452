package trg

import (
	"container/list"

	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The naive reference builder: the Q as a container/list plus a map, the
// graphs accumulated edge by edge into graph.Graph's map-of-maps, and the
// pair database as one map keyed by the (p, r, s) triple. It is the
// construction exactly as Sections 3, 4.1 and 6 describe it, kept only to
// pin the row-table Builder to it on the differential grid.

type refEntry struct {
	id   BlockID
	size int
}

// refQueue is the ordered set Q of recently referenced code blocks,
// oldest first, each block at most once, trimmed from the oldest end
// while the remainder still reaches the bound.
type refQueue struct {
	bound   int
	ll      *list.List // of refEntry, front = oldest
	byID    map[BlockID]*list.Element
	totSize int
}

func newRefQueue(bound int) *refQueue {
	return &refQueue{bound: bound, ll: list.New(), byID: make(map[BlockID]*list.Element)}
}

func (q *refQueue) Len() int { return q.ll.Len() }

// touchPairs processes the next reference to id: fn receives every block
// interleaved since id's previous reference, pairFn every unordered pair
// of them; then id moves to the newest end and the oldest are evicted.
func (q *refQueue) touchPairs(id BlockID, size int, fn func(between BlockID), pairFn func(r, s BlockID)) {
	if prev, ok := q.byID[id]; ok {
		var between []BlockID
		for e := prev.Next(); e != nil; e = e.Next() {
			b := e.Value.(refEntry).id
			if fn != nil {
				fn(b)
			}
			between = append(between, b)
		}
		if pairFn != nil {
			for i := 0; i < len(between); i++ {
				for j := i + 1; j < len(between); j++ {
					pairFn(between[i], between[j])
				}
			}
		}
		q.totSize -= prev.Value.(refEntry).size
		q.ll.Remove(prev)
		delete(q.byID, id)
	}
	q.byID[id] = q.ll.PushBack(refEntry{id: id, size: size})
	q.totSize += size
	for q.ll.Len() > 1 {
		oldest := q.ll.Front()
		sz := oldest.Value.(refEntry).size
		if q.totSize-sz < q.bound {
			return
		}
		q.totSize -= sz
		delete(q.byID, oldest.Value.(refEntry).id)
		q.ll.Remove(oldest)
	}
}

type refPairKey struct{ p, r, s BlockID }

// refBuilder is the map-of-maps builder.
type refBuilder struct {
	prog    *program.Program
	chunker *program.Chunker
	keep    func(program.ProcID) bool

	sel, place   *graph.Graph
	pairs        map[refPairKey]int64 // nil unless pair tracking enabled
	qSel, qPlace *refQueue
	stats        BuildStats
}

func newRefBuilder(prog *program.Program, opts Options, trackPairs bool) (*refBuilder, error) {
	opts.setDefaults()
	chunker, err := program.NewChunker(prog, opts.ChunkSize)
	if err != nil {
		return nil, err
	}
	bound := opts.CacheBytes * opts.QFactor
	b := &refBuilder{
		prog:    prog,
		chunker: chunker,
		keep: func(p program.ProcID) bool {
			return opts.Popular == nil || opts.Popular.Contains(p)
		},
		sel:    graph.New(),
		place:  graph.New(),
		qSel:   newRefQueue(bound),
		qPlace: newRefQueue(bound),
	}
	if trackPairs {
		b.pairs = make(map[refPairKey]int64)
	}
	return b, nil
}

func (b *refBuilder) observe(e trace.Event) {
	p := e.Proc
	if !b.keep(p) {
		return
	}
	b.stats.Events++
	ext := e.ExtentBytes(b.prog)
	id := BlockID(p)
	b.sel.AddNode(id)
	b.qSel.touchPairs(id, ext, func(between BlockID) { b.sel.Increment(id, between) }, nil)
	qLen := b.qSel.Len()
	b.stats.QLenSum += int64(qLen)
	b.stats.QSteps++
	b.stats.MaxQLen = max(b.stats.MaxQLen, qLen)
	b.stats.QLenHist[telemetry.BucketIndex(int64(qLen))]++

	n := program.CeilDiv(ext, b.chunker.ChunkSize())
	first := b.chunker.FirstChunk(p)
	for i := 0; i < n; i++ {
		c := first + program.ChunkID(i)
		cid := BlockID(c)
		b.place.AddNode(cid)
		var pairFn func(r, s BlockID)
		if b.pairs != nil {
			pairFn = func(r, s BlockID) {
				if r > s {
					r, s = s, r
				}
				b.pairs[refPairKey{cid, r, s}]++
			}
		}
		b.qPlace.touchPairs(cid, b.chunker.ChunkBytes(c), func(between BlockID) { b.place.Increment(cid, between) }, pairFn)
	}
}

// refBuild runs the reference builder over a whole trace.
func refBuild(prog *program.Program, tr *trace.Trace, opts Options, trackPairs bool) (*refBuilder, error) {
	b, err := newRefBuilder(prog, opts, trackPairs)
	if err != nil {
		return nil, err
	}
	for _, e := range tr.Events {
		b.observe(e)
	}
	return b, nil
}
