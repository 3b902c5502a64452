package core

import (
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/trg"
)

// This file holds the alignment engines behind the GBSC merge loop. The
// naive scorers (bestAlignment and bestAlignmentAssoc, in the package's
// tests) rebuild both nodes' line occupancy from the chunker and walk all
// C² line or set pairs on every merge. The engines here keep each working
// node's chunk→line assignment incrementally up to date across
// shift/absorb and score alignments from the weights that can reach the
// cost vector: directEngine iterates the TRG_place cross-edges between the
// two nodes (cost[(l1-l2) mod C] += w), and assocEngine iterates the pair
// database rows of the two nodes' chunks. A search costs a walk of those
// entries plus O(C), not O(C²). Differential tests (differential_test.go)
// prove the engines byte-identical to the oracles.

// alignEngine is the per-run alignment scorer driven by assign: addNode
// seeds the incremental occupancy state for one popular procedure, best
// Offset runs the Figure 4 search for merging node v into node u, and
// merged applies the chosen shift to the engine's state after the working
// graph merge.
type alignEngine interface {
	addNode(id graph.NodeID, p program.ProcID)
	bestOffset(u, v graph.NodeID) int
	merged(u, v graph.NodeID, off int)
	crossEdgesScanned() int64
}

// occState is the incremental chunk→line occupancy shared by both engines.
// Working-node IDs are popular ProcIDs, so per-node state lives in dense
// slices indexed by NodeID; each chunk belongs to exactly one procedure and
// therefore to at most one working node at a time.
type occState struct {
	period    int
	lineBytes int
	prog      *program.Program
	chunker   *program.Chunker
	// owner maps each chunk to the working node currently holding it, or
	// -1. chunkLines holds the cache lines (node-relative, canonicalized to
	// [0, period)) each chunk occupies, one line per cache line of the
	// owning procedure: a run of consecutive lines modulo the period, which
	// repeats lines only when the chunk is longer than the period.
	owner      []graph.NodeID
	chunkLines [][]int32
	// nodeChunks lists each working node's distinct chunks in absorption
	// order.
	nodeChunks [][]program.ChunkID
}

func newOccState(prog *program.Program, chunker *program.Chunker, lineBytes, period int) occState {
	nc := chunker.NumChunks()
	owner := make([]graph.NodeID, nc)
	for i := range owner {
		owner[i] = -1
	}
	return occState{
		period:     period,
		lineBytes:  lineBytes,
		prog:       prog,
		chunker:    chunker,
		owner:      owner,
		chunkLines: make([][]int32, nc),
		nodeChunks: make([][]program.ChunkID, prog.NumProcs()),
	}
}

// addNode seeds the state for a fresh single-procedure node at offset 0:
// line i of procedure p (mod period, for procedures larger than the cache)
// holds the chunk covering byte i*lineBytes, as the oracles' occupancy
// rebuild derives.
func (s *occState) addNode(id graph.NodeID, p program.ProcID) {
	lines := s.prog.SizeLines(p, s.lineBytes)
	var chunks []program.ChunkID
	last := program.ChunkID(-1)
	for i := 0; i < lines; i++ {
		c := s.chunker.ChunkAtOffset(p, i*s.lineBytes)
		if c != last {
			chunks = append(chunks, c)
			s.owner[c] = id
			last = c
		}
		s.chunkLines[c] = append(s.chunkLines[c], int32(mod(i, s.period)))
	}
	s.nodeChunks[id] = chunks
}

// merged records that node v was shifted by off lines and absorbed into u.
func (s *occState) merged(u, v graph.NodeID, off int) {
	cv := s.nodeChunks[v]
	for _, c := range cv {
		s.owner[c] = u
		ls := s.chunkLines[c]
		for j := range ls {
			ls[j] = int32(mod(int(ls[j])+off, s.period))
		}
	}
	s.nodeChunks[u] = append(s.nodeChunks[u], cv...)
	s.nodeChunks[v] = nil
}

// placeCSR is an immutable CSR adjacency snapshot of TRG_place over
// chunks. The place graph is never mutated during a merge loop, so slice
// walks replace map probes. The same structure doubles as the overlay
// representation for the incremental engine: a CSR built from weight
// deltas whose entries are added on top of the base during accumulation
// (int64 addition is exact, so base + overlay scores the post-delta graph
// byte-identically).
type placeCSR struct {
	nbrOff []int32
	nbrID  []program.ChunkID
	nbrW   []int64
}

// newPlaceCSRFromEdges builds the CSR from an explicit (deduplicated)
// undirected edge list over nc chunks.
func newPlaceCSRFromEdges(es []graph.Edge, nc int) *placeCSR {
	c := &placeCSR{}
	deg := make([]int32, nc+1)
	for _, ed := range es {
		deg[ed.U+1]++
		deg[ed.V+1]++
	}
	for i := 0; i < nc; i++ {
		deg[i+1] += deg[i]
	}
	c.nbrOff = deg
	c.nbrID = make([]program.ChunkID, 2*len(es))
	c.nbrW = make([]int64, 2*len(es))
	fill := make([]int32, nc)
	for _, ed := range es {
		i := c.nbrOff[ed.U] + fill[ed.U]
		c.nbrID[i], c.nbrW[i] = program.ChunkID(ed.V), ed.W
		fill[ed.U]++
		j := c.nbrOff[ed.V] + fill[ed.V]
		c.nbrID[j], c.nbrW[j] = program.ChunkID(ed.U), ed.W
		fill[ed.V]++
	}
	return c
}

func newPlaceCSR(placeG *graph.Graph, nc int) *placeCSR {
	return newPlaceCSRFromEdges(placeG.Edges(), nc)
}

// occSnap is a deep copy of an occState's mutable occupancy (owner map,
// per-chunk line multisets, per-node chunk lists) taken mid-merge-loop.
// The immutable geometry (period, program, chunker) is not captured; a
// snapshot is restored into a freshly constructed state sharing it.
type occSnap struct {
	owner      []graph.NodeID
	chunkLines [][]int32
	nodeChunks [][]program.ChunkID
}

func (s *occState) snapshot() occSnap {
	sn := occSnap{
		owner:      make([]graph.NodeID, len(s.owner)),
		chunkLines: make([][]int32, len(s.chunkLines)),
		nodeChunks: make([][]program.ChunkID, len(s.nodeChunks)),
	}
	copy(sn.owner, s.owner)
	for i, ls := range s.chunkLines {
		if ls != nil {
			sn.chunkLines[i] = append([]int32(nil), ls...)
		}
	}
	for i, cs := range s.nodeChunks {
		if cs != nil {
			sn.nodeChunks[i] = append([]program.ChunkID(nil), cs...)
		}
	}
	return sn
}

// restore overwrites the mutable occupancy with a deep copy of sn, so the
// stored snapshot can be restored again later.
func (s *occState) restore(sn occSnap) {
	copy(s.owner, sn.owner)
	for i := range s.chunkLines {
		s.chunkLines[i] = nil
	}
	for i, ls := range sn.chunkLines {
		if ls != nil {
			s.chunkLines[i] = append([]int32(nil), ls...)
		}
	}
	for i := range s.nodeChunks {
		s.nodeChunks[i] = nil
	}
	for i, cs := range sn.nodeChunks {
		if cs != nil {
			s.nodeChunks[i] = append([]program.ChunkID(nil), cs...)
		}
	}
}

// directEngine scores direct-mapped alignments (the Figure 4 conflict
// metric) edge-first: every TRG_place cross-edge (c1 ∈ u, c2 ∈ v, w)
// contributes w to cost[(l1-l2) mod C] for each line pair the two chunks
// occupy. Iterating the smaller node's adjacency bounds each search by the
// lighter side's cross-degree.
type directEngine struct {
	occState
	csr *placeCSR
	// ov is an optional delta overlay (incremental re-placement): entries
	// are accumulated in addition to the base rows, so the effective edge
	// weight is the sum of both. nil when no deltas are in play.
	ov    *placeCSR
	costs []int64
	cross int64
	// lastBase, when non-nil, receives a copy of the base-CSR-only cost
	// vector of every bestOffset call (before the overlay is accumulated).
	// The recorder stores these per step: the base contribution at a step
	// depends only on the immutable base CSR and the prefix occupancy, so a
	// later revalidation can re-score the step as stored vector + current
	// overlay without walking the base CSR at all.
	lastBase []int64
	// conv is the trapezoid scratch buffer of accumulateRuns.
	conv runConv
	// lastMargin is how far the runner-up cost of the latest bestOffset
	// call was above the winner (maxMargin when there is no runner-up).
	// The merge recorder logs it: a place delta whose bounded cost
	// perturbation stays below the margin provably cannot flip the
	// recorded alignment choice.
	lastMargin int64
}

// maxMargin is the recorded margin when no alternative offset exists or
// costs are unbounded apart; kept well under MaxInt64 so conservative
// margin decrements never underflow.
const maxMargin int64 = 1 << 62

func newDirectEngine(prog *program.Program, placeG *graph.Graph, chunker *program.Chunker, lineBytes, period int) *directEngine {
	return newDirectEngineCSR(prog, newPlaceCSR(placeG, chunker.NumChunks()), chunker, lineBytes, period)
}

// newDirectEngineCSR builds the engine around a prebuilt base CSR, letting
// the recorded/incremental paths share one immutable snapshot across many
// engine instantiations.
func newDirectEngineCSR(prog *program.Program, csr *placeCSR, chunker *program.Chunker, lineBytes, period int) *directEngine {
	return &directEngine{
		occState: newOccState(prog, chunker, lineBytes, period),
		csr:      csr,
		costs:    make([]int64, period),
	}
}

func (e *directEngine) crossEdgesScanned() int64 { return e.cross }

// bestOffset returns the first offset minimizing the conflict metric for
// shifting node v against node u, identical to the oracle's bestAlignment.
func (e *directEngine) bestOffset(u, v graph.NodeID) int {
	costs := e.costs
	for i := range costs {
		costs[i] = 0
	}
	// Scan from whichever node has fewer chunks; the cost index is always
	// (u-side line − v-side line) mod period because the offset shifts v.
	// The accumulation order differs between the two directions but the
	// int64 sums are exact, so the cost vector is identical either way.
	cu, cv := e.nodeChunks[u], e.nodeChunks[v]
	fromU := len(cu) <= len(cv)
	from, other := cu, v
	if !fromU {
		from, other = cv, u
	}
	e.accumulateCSR(e.csr, costs, from, other, !fromU)
	if e.lastBase != nil {
		copy(e.lastBase, costs)
	}
	if e.ov != nil {
		e.accumulateCSR(e.ov, costs, from, other, !fromU)
	}
	best, margin := argminMargin(costs)
	e.lastMargin = margin
	return best
}

// argminMargin returns the first index minimizing costs and how far the
// runner-up is above it (maxMargin when there is no runner-up) — the
// argmin/margin semantics shared by bestOffset and rescore.
func argminMargin(costs []int64) (int, int64) {
	best, bestCost := 0, costs[0]
	for i := 1; i < len(costs); i++ {
		if costs[i] < bestCost {
			best, bestCost = i, costs[i]
		}
	}
	margin := maxMargin
	for i := range costs {
		if i == best {
			continue
		}
		if m := costs[i] - bestCost; m < margin {
			margin = m
		}
	}
	return best, margin
}

// rescore repeats a recorded merge's alignment search from its stored
// base-relative cost vector: the base-CSR contribution is fixed while the
// prefix is reused verbatim (immutable CSR, identical occupancy), so only
// the current overlay is accumulated on top. Byte-identical to a bestOffset
// over the post-delta place graph at the same step.
func (e *directEngine) rescore(base []int64, u, v graph.NodeID) (int, int64) {
	costs := e.costs
	copy(costs, base)
	if e.ov != nil {
		cu, cv := e.nodeChunks[u], e.nodeChunks[v]
		if len(cu) <= len(cv) {
			e.accumulateRuns(e.ov, costs, cu, v, false)
		} else {
			e.accumulateRuns(e.ov, costs, cv, u, true)
		}
	}
	return argminMargin(costs)
}

// accumulateRuns adds the same cross-edge contributions as accumulateCSR
// but in O(edges + period) instead of O(Σ p·q) line pairs: one edge's
// contribution is the circular convolution of its two chunks' line runs,
// drawn as a trapezoid by runConv. The sums are exact int64, so the result
// is byte-identical to accumulateCSR's.
func (e *directEngine) accumulateRuns(csr *placeCSR, costs []int64, from []program.ChunkID, other graph.NodeID, fromIsV bool) {
	P := e.period
	e.conv.reset(P)
	for _, c := range from {
		lo, hi := csr.nbrOff[c], csr.nbrOff[c+1]
		for k := lo; k < hi; k++ {
			far := csr.nbrID[k]
			if e.owner[far] != other {
				continue
			}
			e.cross++
			w := csr.nbrW[k]
			nearLines, farLines := e.chunkLines[c], e.chunkLines[far]
			p, q := len(nearLines), len(farLines)
			if p == 0 || q == 0 {
				continue
			}
			if p+q > P {
				// Runs wrapping the whole period lose the trapezoid shape
				// after folding; score such (rare, huge-chunk) edges with
				// the exact nested loop instead.
				for _, ln := range nearLines {
					for _, lf := range farLines {
						if fromIsV {
							costs[mod(int(lf)-int(ln), P)] += w
						} else {
							costs[mod(int(ln)-int(lf), P)] += w
						}
					}
				}
				continue
			}
			// The cost index is (u-side line − v-side line) mod period; over
			// two runs the differences cover a length p+q-1 window whose
			// linear start is below.
			if fromIsV {
				e.conv.add(int(farLines[0])-int(nearLines[0])-(p-1), p, q, P, w)
			} else {
				e.conv.add(int(nearLines[0])-int(farLines[0])-(q-1), p, q, P, w)
			}
		}
	}
	e.conv.flush(costs)
}

// runConv draws circular convolutions of line runs onto a cost vector. A
// chunk's lines are a consecutive run modulo the period (addNode seeds
// ls[j] = (ls[0]+j) mod period and merged only rotates the run), so the
// line differences between a run of p lines and a run of q lines, with
// p+q ≤ period, count as a trapezoid over a window of p+q-1 offsets. Each
// trapezoid is four impulses on a second-difference buffer; integrating
// the buffer twice at the end materializes all of them at once.
type runConv struct {
	d2 []int64
}

// reset clears the buffer for a new cost vector over period P.
func (r *runConv) reset(P int) {
	if len(r.d2) < 2*P {
		r.d2 = make([]int64, 2*P)
	}
	r.d2 = r.d2[:2*P]
	clear(r.d2)
}

// add draws w times the convolution of a p-line run and a q-line run whose
// differences start at offset s (any integer; p+q ≤ P). The impulses land
// in [0, 2P) because the start is normalized to [0, P).
func (r *runConv) add(s, p, q, P int, w int64) {
	s0 := mod(s, P)
	r.d2[s0] += w
	r.d2[s0+p] -= w
	r.d2[s0+q] -= w
	r.d2[s0+p+q] += w
}

// flush adds every drawn trapezoid into costs. The double prefix sum
// turns the impulses into the summed trapezoids; the four impulses of each
// telescope to zero past its window, so the running values are exactly
// the per-offset contributions. The second period folds back onto the
// first.
func (r *runConv) flush(costs []int64) {
	P := len(costs)
	var d1, t int64
	for i := 0; i < P; i++ {
		d1 += r.d2[i]
		t += d1
		costs[i] += t
	}
	for i := P; i < 2*P; i++ {
		d1 += r.d2[i]
		t += d1
		costs[i-P] += t
	}
}

// accumulateCSR walks one CSR's adjacency of every chunk in from, keeping
// the cross-edges whose far end is owned by other. fromIsV says whether the
// near side is the shifting node v (so its lines are subtracted) or u.
// Callers with an overlay set walk it in a second pass over the same cost
// buffer: a pair present in both contributes base+delta in two exact int64
// additions, a pair only in the overlay contributes the delta alone, and a
// deleted pair's contributions cancel to zero — the cost vector equals the
// one a fresh engine over the post-delta place graph would compute.
func (e *directEngine) accumulateCSR(csr *placeCSR, costs []int64, from []program.ChunkID, other graph.NodeID, fromIsV bool) {
	for _, c := range from {
		lo, hi := csr.nbrOff[c], csr.nbrOff[c+1]
		for k := lo; k < hi; k++ {
			far := csr.nbrID[k]
			if e.owner[far] != other {
				continue
			}
			e.cross++
			w := csr.nbrW[k]
			nearLines, farLines := e.chunkLines[c], e.chunkLines[far]
			for _, ln := range nearLines {
				for _, lf := range farLines {
					if fromIsV {
						costs[mod(int(lf)-int(ln), e.period)] += w
					} else {
						costs[mod(int(ln)-int(lf), e.period)] += w
					}
				}
			}
		}
	}
}

// assocEngine is the Section 6 set-associative scorer. The oracle charges
// D(p,{r,s}) once for every set that holds a line of each of p, r and s,
// where r and s are distinct chunks other than p and the pair has at
// least one member in the node opposite p. Offset i therefore costs
//
//	Σ D(p,{x,y}) · #{(l_p, l_x, l_y) : the three lines share a set at i}
//
// summed over the entries whose three chunks are distinct, all owned by u
// or v, and not all in one node. Such a triple has two chunks in one node,
// whose lines do not move with the offset, and one chunk alone in the
// other. The two fixed runs meet in at most one run of sets, and that
// overlap convolved with the lone chunk's run is the same trapezoid
// directEngine draws. The engine walks the pair database rows of both
// nodes' chunks, keeps the entries that qualify, and adds each trapezoid
// into a runConv; runs that wrap the period fall back to an exact nested
// loop. The sums are exact int64, so the cost vector equals the oracle's
// and so does its first minimum.
type assocEngine struct {
	occState
	db    *trg.PairDB
	costs []int64
	conv  runConv
}

func newAssocEngine(prog *program.Program, db *trg.PairDB, chunker *program.Chunker, lineBytes, period int) *assocEngine {
	return &assocEngine{
		occState: newOccState(prog, chunker, lineBytes, period),
		db:       db,
		costs:    make([]int64, period),
	}
}

func (e *assocEngine) crossEdgesScanned() int64 { return 0 }

func (e *assocEngine) bestOffset(u, v graph.NodeID) int {
	e.scoreOffsets(u, v)
	best, _ := argminMargin(e.costs)
	return best
}

// scoreOffsets fills e.costs with the cost of every offset of v against u.
func (e *assocEngine) scoreOffsets(u, v graph.NodeID) {
	clear(e.costs)
	e.conv.reset(e.period)
	for _, p := range e.nodeChunks[u] {
		e.chargeRow(p, u, u, v)
	}
	for _, p := range e.nodeChunks[v] {
		e.chargeRow(p, v, u, v)
	}
	e.conv.flush(e.costs)
}

// chargeRow charges the qualifying entries of p's pair database row; op is
// the node holding p.
func (e *assocEngine) chargeRow(p program.ChunkID, op, u, v graph.NodeID) {
	e.db.Row(trg.BlockID(p)).Each(func(a, b trg.BlockID, n int64) {
		x, y := program.ChunkID(a), program.ChunkID(b)
		if x == p || y == p || x == y {
			return
		}
		ox, oy := e.ownerOf(x), e.ownerOf(y)
		if (ox != u && ox != v) || (oy != u && oy != v) || (ox == op && oy == op) {
			return
		}
		// Exactly one of the three chunks is alone in its node.
		switch {
		case ox == oy:
			e.charge(x, y, p, op == u, n)
		case ox == op:
			e.charge(p, x, y, oy == u, n)
		default:
			e.charge(p, y, x, ox == u, n)
		}
	})
}

// ownerOf is the working node holding chunk c, or -1 (also for ids past
// the chunker's range, which a pair database may cover).
func (e *assocEngine) ownerOf(c program.ChunkID) graph.NodeID {
	if uint(c) >= uint(len(e.owner)) {
		return -1
	}
	return e.owner[c]
}

// charge adds w to the cost of every offset once per line triple of a and
// b (both in one node) and c (alone in the other) that shares a set there;
// cIsU says whether c sits in the fixed node u. The cost index is always
// (u-side line − v-side line) mod period.
func (e *assocEngine) charge(a, b, c program.ChunkID, cIsU bool, w int64) {
	P := e.period
	A, B, C := e.chunkLines[a], e.chunkLines[b], e.chunkLines[c]
	if len(A)+len(B) > P {
		// Runs this long can meet in two places or repeat a set.
		for _, la := range A {
			for _, lb := range B {
				if la == lb {
					e.chargeLine(int(la), C, cIsU, w)
				}
			}
		}
		return
	}
	o, lo := runOverlap(int(A[0]), len(A), int(B[0]), len(B), P)
	if lo == 0 {
		return
	}
	lc := len(C)
	if lo+lc > P {
		for k := 0; k < lo; k++ {
			e.chargeLine((o+k)%P, C, cIsU, w)
		}
		return
	}
	if cIsU {
		e.conv.add(int(C[0])-o-(lo-1), lc, lo, P, w)
	} else {
		e.conv.add(o-int(C[0])-(lc-1), lo, lc, P, w)
	}
}

// chargeLine adds w for line l of the fixed pair against every line of c.
func (e *assocEngine) chargeLine(l int, C []int32, cIsU bool, w int64) {
	for _, lc := range C {
		if cIsU {
			e.costs[mod(int(lc)-l, e.period)] += w
		} else {
			e.costs[mod(l-int(lc), e.period)] += w
		}
	}
}

// runOverlap intersects the circular runs [a, a+la) and [b, b+lb) modulo
// P, returning the start and length of the intersection (length 0 when
// they are disjoint). With la+lb ≤ P the intersection is a single run.
func runOverlap(a, la, b, lb, P int) (start, n int) {
	d := mod(b-a, P)
	switch {
	case d < la:
		return b, min(la-d, lb)
	case d+lb > P:
		return a, min(d+lb-P, la)
	}
	return 0, 0
}
