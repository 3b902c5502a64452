package trg

// rowTable is one row of a sparse count matrix: an open-addressed
// uint32 → int64 table with linear probing, power-of-two capacity and load
// at most 3/4. It is the one accumulator behind every structure the
// builder fills. TRG_select and TRG_place keep a row per touched block,
// keyed by the intervening block; the pair database keeps a row per
// tracked chunk p, keyed by the packed dense ranks of {r,s}. A hot block's
// row is small and cache-resident, so an increment is a multiply and a
// short probe rather than a Go map update.
type rowTable struct {
	keys  []uint32 // key+1 per slot; 0 marks an empty slot
	vals  []int64
	n     int  // occupied slots
	shift uint // 32 - log2(len(keys))
}

// minRowSlots is the capacity of a row's first allocation.
const minRowSlots = 8

// slot is the home slot of a stored key (Fibonacci hashing: the top bits
// of the product by 2³²/φ).
func (t *rowTable) slot(k1 uint32) uint32 { return (k1 * 0x9E3779B9) >> t.shift }

// add adds d to the count of key k. Every count the builder stores is
// positive, and keys stay below 2³²-1, so k+1 never wraps to the empty
// marker.
func (t *rowTable) add(k uint32, d int64) {
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
	t.add(k, d)
}

// get returns the count of key k, 0 when absent. The load bound leaves an
// empty slot in every probe sequence, so the loop terminates.
func (t *rowTable) get(k uint32) int64 {
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

// each invokes fn for every stored key and count, in slot order.
func (t *rowTable) each(fn func(k uint32, v int64)) {
	for i, k1 := range t.keys {
		if k1 != 0 {
			fn(k1-1, t.vals[i])
		}
	}
}

// merge adds every count of o into t.
func (t *rowTable) merge(o *rowTable) {
	for i, k1 := range o.keys {
		if k1 != 0 {
			t.add(k1-1, o.vals[i])
		}
	}
}

// resize rehashes the row into slots slots (a power of two).
func (t *rowTable) resize(slots int) {
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
			t.add(k1-1, vals[i])
		}
	}
}
