package graph

// heaviestEdgeScan is the original O(E) linear scan over the adjacency
// maps, retained as the reference oracle for the differential tests of the
// heap selector. It must implement the identical (W desc, U asc, V asc)
// total order.
func (g *Graph) heaviestEdgeScan() (e Edge, ok bool) {
	for u, m := range g.adj {
		for v, w := range m {
			if u > v {
				continue
			}
			if !ok || w > e.W || (w == e.W && (u < e.U || (u == e.U && v < e.V))) {
				e = Edge{U: u, V: v, W: w}
				ok = true
			}
		}
	}
	return e, ok
}
