package submodular

import (
	"slices"
	"testing"
	"unsafe"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// TestLazyItemSize pins a CELF heap entry at 16 bytes. Every heap and
// every memoized LazySnapshot is a []LazyItem, so a field order that
// pads the item (an int Round after the int32 Node did, to 24 bytes)
// grows both by half.
func TestLazyItemSize(t *testing.T) {
	if size := unsafe.Sizeof(LazyItem{}); size != 16 {
		t.Fatalf("LazyItem is %d bytes, want 16", size)
	}
}

// canonicalMax returns the index of the item that outranks every other:
// the highest gain, the lowest node ID among equal gains. It is the
// reference the heap's pop must reproduce.
func canonicalMax(items []LazyItem) int {
	best := 0
	for i, it := range items {
		if it.Gain > items[best].Gain || it.Gain == items[best].Gain && it.Node < items[best].Node {
			best = i
		}
	}
	return best
}

// TestCELFHeapPopsInCanonicalOrder drives the typed CELF heap through
// init/push/pop sequences over heavily tied gains and checks every pop
// against a linear scan: the item with the highest gain, the lowest node
// ID on a tie. Under that total order the popped item does not depend on
// the heap's array layout, which is what lets CELF drop items or resume
// from a snapshot without changing a pick.
func TestCELFHeapPopsInCanonicalOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		n := rng.Intn(80)
		levels := 1 + rng.Intn(4) // at most 4 distinct gains: ties everywhere
		// Node IDs come shuffled, so array position and node order disagree.
		ids := rng.Perm(5*n + 10)
		item := func() LazyItem {
			v := ids[0]
			ids = ids[1:]
			return LazyItem{Node: graph.NodeID(v), Gain: float64(rng.Intn(levels)), Round: int32(rng.Intn(3))}
		}
		h := make(celfHeap, 0, n)
		for range n {
			h = append(h, item())
		}
		ref := slices.Clone([]LazyItem(h))
		h.init()
		for step := 0; step < 4*n+10; step++ {
			if len(h) > 0 && rng.Intn(3) > 0 {
				i := canonicalMax(ref)
				want := ref[i]
				ref = slices.Delete(ref, i, i+1)
				got := h.pop()
				if got != want {
					t.Fatalf("seed %d step %d: pop = %v, want %v", seed, step, got, want)
				}
				if rng.Intn(2) == 0 {
					// CELF's re-insert: the popped item returns with a
					// refreshed, no larger gain.
					got.Gain = float64(rng.Intn(int(got.Gain) + 1))
					h.push(got)
					ref = append(ref, got)
				}
			} else {
				it := item()
				h.push(it)
				ref = append(ref, it)
			}
			if len(h) != len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d items, want %d", seed, step, len(h), len(ref))
			}
		}
	}
}
