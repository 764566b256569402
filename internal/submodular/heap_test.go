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
// init, pop and in-place re-key sequences over heavily tied gains and
// checks the top and the runner-up at every step against a linear scan:
// the item with the highest gain, the lowest node ID on a tie. Under that
// total order neither depends on the heap's array layout, which is what
// lets CELF drop items or resume from a snapshot without changing a pick.
// Each item's row must travel with it through every sift.
func TestCELFHeapPopsInCanonicalOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		n := rng.Intn(80)
		levels := 1 + rng.Intn(4) // at most 4 distinct gains: ties everywhere
		// Node IDs come shuffled, so array position and node order disagree.
		h := &celfHeap{width: 2, row: make([]float32, 2)}
		ref := make([]LazyItem, 0, n)
		for _, v := range rng.Perm(5*n + 10)[:n] {
			it := LazyItem{Node: graph.NodeID(v), Gain: float64(rng.Intn(levels)), Round: int32(rng.Intn(3))}
			h.add(it, []float64{float64(v), float64(v) + 0.5})
			ref = append(ref, it)
		}
		h.init()
		for step := 0; len(h.items) > 0; step++ {
			i := canonicalMax(ref)
			top := h.items[0]
			if top != ref[i] {
				t.Fatalf("seed %d step %d: top = %v, want %v", seed, step, top, ref[i])
			}
			if row := h.rows[:2]; row[0] != float32(top.Node) || row[1] != float32(top.Node)+0.5 {
				t.Fatalf("seed %d step %d: top %v carries row %v", seed, step, top, row)
			}
			if len(ref) > 1 {
				rest := slices.Delete(slices.Clone(ref), i, i+1)
				if got, want := h.runnerUp(), rest[canonicalMax(rest)]; got != want {
					t.Fatalf("seed %d step %d: runner-up = %v, want %v", seed, step, got, want)
				}
			}
			if rng.Intn(3) == 0 {
				// CELF's re-key in place: a re-evaluation or a row bound,
				// never larger than the key it replaces.
				h.items[0].Gain = float64(rng.Intn(int(top.Gain) + 1))
				h.items[0].Round++
				ref[i] = h.items[0]
				h.down(0, len(h.items))
				continue
			}
			if got := h.pop(); got != top {
				t.Fatalf("seed %d step %d: pop = %v, want %v", seed, step, got, top)
			}
			ref = slices.Delete(ref, i, i+1)
			if len(h.items) != len(ref) || len(h.rows) != 2*len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d items and %d row entries, want %d items", seed, step, len(h.items), len(h.rows), len(ref))
			}
		}
	}
}
