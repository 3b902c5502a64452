package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRowTableMatchesMap drives one row table with random adds across
// several resizes and checks every count against a map.
func TestRowTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var row RowTable
	want := map[uint32]int64{}
	for i := 0; i < 20000; i++ {
		k := uint32(rng.Intn(3000))
		if rng.Intn(4) == 0 {
			k = rng.Uint32() >> 1
		}
		d := int64(1 + rng.Intn(3))
		row.Add(k, d)
		want[k] += d
	}
	if row.n != len(want) {
		t.Fatalf("n = %d, want %d", row.n, len(want))
	}
	if 4*row.n > 3*len(row.keys) {
		t.Fatalf("load %d/%d above 3/4", row.n, len(row.keys))
	}
	for k, v := range want {
		if got := row.Get(k); got != v {
			t.Fatalf("get(%d) = %d, want %d", k, got, v)
		}
	}
	if row.Get(1<<31+7) != 0 {
		t.Fatal("absent key counted")
	}
	seen := 0
	row.Each(func(k uint32, v int64) {
		seen++
		if want[k] != v {
			t.Fatalf("each(%d) = %d, want %d", k, v, want[k])
		}
	})
	if seen != len(want) {
		t.Fatalf("each visited %d keys, want %d", seen, len(want))
	}
	var sum RowTable
	sum.Merge(&row)
	sum.Merge(&row)
	for k, v := range want {
		if got := sum.Get(k); got != 2*v {
			t.Fatalf("merged get(%d) = %d, want %d", k, got, 2*v)
		}
	}
}

// TestRowsFreeze checks that a frozen graph has every touched id as a node,
// sums the two directions of each pair into one edge, drops self counts,
// and does not change when the rows keep accumulating.
func TestRowsFreeze(t *testing.T) {
	r := NewRows(6)
	r.Record(0, []NodeID{1, 2, 1})
	r.Record(2, []NodeID{0, 2})
	r.Add(3, 1, 5)
	r.Touch(4)
	g := r.Freeze()
	if got, want := g.Nodes(), []NodeID{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("nodes %v, want %v", got, want)
	}
	want := []Edge{{0, 1, 2}, {0, 2, 2}, {1, 3, 5}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	r.Record(5, []NodeID{0})
	if g.HasNode(5) || g.Weight(0, 5) != 0 {
		t.Fatal("frozen graph changed after a later record")
	}
}
