package graph

// RowTable is one row of a sparse count matrix: an open-addressed
// uint32 → int64 table with linear probing, power-of-two capacity and load
// at most 3/4. It is the one pair-weight accumulator of the repository:
// Rows keeps one per node for TRG_select, TRG_place and the weighted call
// graph, and the Section 6 pair database keeps one per tracked chunk p,
// keyed by the packed dense ranks of {r,s}. A hot node's row is small and
// cache-resident, so an increment is a multiply and a short probe rather
// than a Go map update.
type RowTable struct {
	keys  []uint32 // key+1 per slot; 0 marks an empty slot
	vals  []int64
	n     int  // occupied slots
	shift uint // 32 - log2(len(keys))
}

// minRowSlots is the capacity of a row's first allocation.
const minRowSlots = 8

// slot is the home slot of a stored key (Fibonacci hashing: the top bits
// of the product by 2³²/φ).
func (t *RowTable) slot(k1 uint32) uint32 { return (k1 * 0x9E3779B9) >> t.shift }

// Add adds d to the count of key k. Every count stored is positive, and
// keys stay below 2³²-1, so k+1 never wraps to the empty marker.
func (t *RowTable) Add(k uint32, d int64) {
	k1 := k + 1
	if len(t.keys) > 0 {
		mask := uint32(len(t.keys) - 1)
		for i := t.slot(k1); ; i = (i + 1) & mask {
			if t.keys[i] == k1 {
				t.vals[i] += d
				return
			}
			if t.keys[i] == 0 {
				if 4*(t.n+1) <= 3*len(t.keys) {
					t.keys[i], t.vals[i] = k1, d
					t.n++
					return
				}
				break
			}
		}
	}
	t.resize(max(minRowSlots, 2*len(t.keys)))
	t.Add(k, d)
}

// Get returns the count of key k, 0 when absent. The load bound leaves an
// empty slot in every probe sequence, so the loop terminates.
func (t *RowTable) Get(k uint32) int64 {
	if t.n == 0 {
		return 0
	}
	k1 := k + 1
	mask := uint32(len(t.keys) - 1)
	for i := t.slot(k1); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k1:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

// Len returns the number of stored keys.
func (t *RowTable) Len() int { return t.n }

// Each invokes fn for every stored key and count, in slot order.
func (t *RowTable) Each(fn func(k uint32, v int64)) {
	for i, k1 := range t.keys {
		if k1 != 0 {
			fn(k1-1, t.vals[i])
		}
	}
}

// Merge adds every count of o into t.
func (t *RowTable) Merge(o *RowTable) {
	for i, k1 := range o.keys {
		if k1 != 0 {
			t.Add(k1-1, o.vals[i])
		}
	}
}

// resize rehashes the row into slots slots (a power of two).
func (t *RowTable) resize(slots int) {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint32, slots)
	t.vals = make([]int64, slots)
	t.n = 0
	t.shift = 32
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
	for i, k1 := range keys {
		if k1 != 0 {
			t.Add(k1-1, vals[i])
		}
	}
}

// Rows accumulates an undirected weighted graph over the dense ids [0, n)
// as one RowTable per node: rows[u][v] counts what was recorded from u's
// side about v, and the edge weight is W(u,v) = rows[u][v] + rows[v][u].
// TRG_select and TRG_place record, per touched block, the blocks that
// intervened since its previous reference; the weighted call graph records
// each transition in the row of its source. Freeze turns the rows into a
// Graph.
type Rows struct {
	rows []RowTable
	seen []bool // ids observed, the graph's node set
}

// NewRows creates an empty accumulator over the ids [0, n).
func NewRows(n int) Rows {
	return Rows{rows: make([]RowTable, n), seen: make([]bool, n)}
}

// Touch makes u a node of the frozen graph, with or without edges.
func (r *Rows) Touch(u NodeID) { r.seen[u] = true }

// Add adds d to rows[u][v] without touching either node.
func (r *Rows) Add(u, v NodeID, d int64) { r.rows[u].Add(uint32(v), d) }

// Record touches u and adds one to rows[u][v] for each v of between.
func (r *Rows) Record(u NodeID, between []NodeID) {
	r.seen[u] = true
	row := &r.rows[u]
	for _, v := range between {
		row.Add(uint32(v), 1)
	}
}

// Merge adds o's nodes and counts into r; both span the same ids.
func (r *Rows) Merge(o *Rows) {
	for u := range o.rows {
		r.seen[u] = r.seen[u] || o.seen[u]
		r.rows[u].Merge(&o.rows[u])
	}
}

// Freeze builds the graph: every touched id is a node, and the edge {u,v}
// carries rows[u][v] + rows[v][u], added once from the row of its smaller
// endpoint (or from the only row that holds it). Counts recorded from u to
// itself are dropped, as AddEdgeWeight drops self-loops. The graph is an
// independent snapshot: later records do not change it.
func (r *Rows) Freeze() *Graph {
	g := New()
	for u := range r.rows {
		if r.seen[u] {
			g.AddNodeCap(NodeID(u), r.rows[u].n)
		}
	}
	for u := range r.rows {
		r.rows[u].Each(func(v uint32, w int64) {
			if int(v) < u {
				if r.rows[v].Get(uint32(u)) != 0 {
					return // added from v's row
				}
			} else {
				w += r.rows[v].Get(uint32(u))
			}
			g.AddEdgeWeight(NodeID(u), NodeID(v), w)
		})
	}
	return g
}
