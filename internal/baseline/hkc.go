package baseline

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/popular"
	"repro/internal/program"
)

// HKC implements the cache-line-coloring placement of Hashemi, Kaeli and
// Calder as characterized in Section 5 of the paper: it extends PH with
// knowledge of procedure sizes and the cache configuration, records the set
// of cache lines (colors) occupied by each placed procedure, and tries to
// prevent overlap between a procedure and its immediate neighbors in the
// call graph. Whole groups of already-placed procedures may shift when
// groups are combined, provided the shift does not create conflicts with
// prior decisions (we realize this as a minimum-conflict padding search).
//
// g must be the weighted call graph over the popular procedures (see
// wcg.BuildFiltered); unpopular procedures fill gaps and are appended, as in
// GBSC, so that the three algorithms differ only in their placement logic.
//
// Each padding search scores all of its candidate pads at once as a cost
// vector over the cache lines (DESIGN.md §4): every placed interval that
// can conflict goes into a ring difference array, and window sums of its
// prefix sums give the overlap of the procedure being placed at every
// line.
func HKC(prog *program.Program, g *graph.Graph, pop *popular.Set, cfg cache.Config) (*program.Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pop == nil {
		pop = popular.All(prog)
	}
	h, err := newColoring(prog, g, cfg.NumLines(), cfg.LineBytes)
	if err != nil {
		return nil, err
	}

	// Process edges in decreasing weight order.
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if c := cmp.Compare(b.W, a.W); c != 0 {
			return c
		}
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	for _, e := range edges {
		p, q := program.ProcID(e.U), program.ProcID(e.V)
		cp, cq := h.comp[p], h.comp[q]
		switch {
		case cp < 0 && cq < 0:
			// Neither placed: a fresh compound with the pair adjacent.
			c := int32(len(h.compounds))
			h.compounds = append(h.compounds, []program.ProcID{p, q})
			h.comp[p], h.line[p] = c, 0
			h.comp[q], h.line[q] = c, h.size[p]%h.period
		case cp < 0:
			h.placeNewcomer(p, q)
		case cq < 0:
			h.placeNewcomer(q, p)
		case cp != cq:
			h.shiftCompound(p, q)
		default:
			// Both already in the same compound: the prior decision stands.
		}
	}

	// Emit compounds in creation order; popular procedures never touched by
	// an edge, plus all unpopular procedures, fill gaps and the tail.
	var ordered []place.Placed
	for _, c := range h.compounds {
		for _, p := range c {
			ordered = append(ordered, place.Placed{Proc: p, Line: h.line[p]})
		}
	}
	filler := append([]program.ProcID(nil), pop.Unpopular(prog)...)
	for _, p := range pop.IDs {
		if h.comp[p] < 0 {
			filler = append(filler, p)
		}
	}
	return place.Emit(prog, ordered, filler, cfg, h.period)
}

// coloring is HKC's state, dense over the procedure ids: each placed
// procedure's compound and line, the compounds' members in placement
// order, and every procedure's WCG neighbours, taken from the graph once.
type coloring struct {
	period int
	size   []int   // procedure size in cache lines
	comp   []int32 // compound index, -1 while unplaced
	line   []int   // start line in [0, period) once placed

	// compounds lists each compound's procedures in placement order; a
	// compound shifted into another is emptied and emits nothing.
	compounds [][]program.ProcID

	// The neighbours of p are nbr[adj[p]:adj[p+1]] with edge weights wt.
	adj []int32
	nbr []program.ProcID
	wt  []int64

	// Scratch vectors over the ring of cache lines.
	diff []int64 // period+1 entries, all zero between uses
	occ  []int64 // per-line occupancy of the compound being shifted into
	dens []int64
	win  []int64
	cost []int64
}

// neighborScale weighs a weighted line overlap with a call-graph
// neighbour against a raw line overlap within the target compound: HKC
// first keeps a procedure off its neighbours, and only then packs a
// compound's procedures into disjoint colors while empty colors remain,
// which keeps non-adjacent siblings of a hot caller off each other.
const neighborScale = 1 << 20

func newColoring(prog *program.Program, g *graph.Graph, period, lineBytes int) (*coloring, error) {
	n := prog.NumProcs()
	h := &coloring{
		period: period,
		size:   make([]int, n),
		comp:   make([]int32, n),
		line:   make([]int, n),
		adj:    make([]int32, n+1),
		diff:   make([]int64, period+1),
		occ:    make([]int64, period),
		dens:   make([]int64, period),
		win:    make([]int64, period),
		cost:   make([]int64, period),
	}
	for p := range h.size {
		h.size[p] = prog.SizeLines(program.ProcID(p), lineBytes)
		h.comp[p] = -1
	}
	nodes := g.Nodes()
	for _, u := range nodes {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("hkc: call-graph node %d is not a procedure of the %d-procedure program", u, n)
		}
		h.adj[u+1] = int32(g.Degree(u))
	}
	for p := 0; p < n; p++ {
		h.adj[p+1] += h.adj[p]
	}
	h.nbr = make([]program.ProcID, h.adj[n])
	h.wt = make([]int64, h.adj[n])
	for _, u := range nodes {
		i := h.adj[u]
		g.Neighbors(u, func(v graph.NodeID, w int64) {
			h.nbr[i], h.wt[i] = program.ProcID(v), w
			i++
		})
	}
	return h, nil
}

// span is the number of ring lines a procedure of n lines covers.
func (h *coloring) span(n int) int { return min(n, h.period) }

// mark adds c to every ring line of the procedure p as placed.
func (h *coloring) mark(p program.ProcID, c int64) {
	start, end := h.line[p], h.line[p]+h.span(h.size[p])
	h.diff[start] += c
	if end <= h.period {
		h.diff[end] -= c
		return
	}
	h.diff[h.period] -= c
	h.diff[0] += c
	h.diff[end-h.period] -= c
}

// density turns the difference array into per-line totals plus base (nil
// for none), leaving dens filled and diff zeroed for the next use.
func (h *coloring) density(base []int64) {
	var run int64
	for x := range h.dens {
		run += h.diff[x]
		h.diff[x] = 0
		h.dens[x] = run
		if base != nil {
			h.dens[x] += base[x]
		}
	}
	h.diff[h.period] = 0
}

// windows sets win[a] to the sum of dens over the n ring lines from a:
// the cost of a procedure of n lines starting at line a.
func (h *coloring) windows(n int) {
	n = h.span(n)
	var s int64
	for x := 0; x < n; x++ {
		s += h.dens[x]
	}
	for a := range h.win {
		h.win[a] = s
		s += h.dens[(a+n)%h.period] - h.dens[a]
	}
}

// markNeighbors marks the placed neighbours of p in compound in (in any
// compound when in is negative) with neighborScale times the edge weight.
func (h *coloring) markNeighbors(p program.ProcID, in int32) {
	for i := h.adj[p]; i < h.adj[p+1]; i++ {
		if v := h.nbr[i]; h.comp[v] >= 0 && (in < 0 || h.comp[v] == in) {
			h.mark(v, neighborScale*h.wt[i])
		}
	}
}

// placeNewcomer places the unplaced procedure q after its edge partner p,
// sliding forward to the first pad whose cost is least — the coloring
// step of HKC. A pad's cost is q's weighted overlap with its placed
// neighbours in any compound plus its raw overlap with p's compound.
func (h *coloring) placeNewcomer(q, p program.ProcID) {
	c := h.comp[p]
	h.markNeighbors(q, -1)
	for _, r := range h.compounds[c] {
		h.mark(r, 1)
	}
	h.density(nil)
	h.windows(h.size[q])
	base := h.line[p] + h.size[p]
	bestPad, best := 0, h.win[base%h.period]
	for pad := 1; pad < h.period; pad++ {
		if cost := h.win[(base+pad)%h.period]; cost < best {
			bestPad, best = pad, cost
		}
	}
	h.compounds[c] = append(h.compounds[c], q)
	h.comp[q], h.line[q] = c, (base+bestPad)%h.period
}

// shiftCompound moves q's compound, whole, into p's: at pad 0 q lands
// right after p, and the pad kept is the first least costly one. The cost
// of a pad sums, over every procedure r of q's compound at its shifted
// line, r's weighted overlap with its neighbours in p's compound plus its
// raw overlap with p's compound. Shifting the whole group realizes HKC's
// "already mapped procedures are allowed to move as long as the new
// location's cache lines do not conflict with prior decisions".
func (h *coloring) shiftCompound(p, q program.ProcID) {
	cp, cq := h.comp[p], h.comp[q]
	for _, r := range h.compounds[cp] {
		h.mark(r, 1)
	}
	h.density(nil)
	copy(h.occ, h.dens)
	clear(h.cost)
	anchor := h.line[p] + h.size[p] - h.line[q] // q adjacent to p at pad 0
	for _, r := range h.compounds[cq] {
		h.markNeighbors(r, cp)
		h.density(h.occ)
		h.windows(h.size[r])
		a := mod(h.line[r]+anchor, h.period)
		for pad := range h.cost {
			h.cost[pad] += h.win[a]
			if a++; a == h.period {
				a = 0
			}
		}
	}
	bestPad := 0
	for pad, cost := range h.cost {
		if cost < h.cost[bestPad] {
			bestPad = pad
		}
	}
	delta := anchor + bestPad
	for _, r := range h.compounds[cq] {
		h.comp[r], h.line[r] = cp, mod(h.line[r]+delta, h.period)
	}
	h.compounds[cp] = append(h.compounds[cp], h.compounds[cq]...)
	h.compounds[cq] = nil
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
