package submodular

import (
	"container/heap"
	"slices"
	"testing"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// refHeap is celfHeap's order through container/heap: the reference the
// typed heap must reproduce step for step.
type refHeap []LazyItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Gain > h[j].Gain }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(LazyItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestCELFHeapMatchesContainerHeap drives the typed CELF heap and the
// container/heap reference through the same init/push/pop sequences over
// heavily tied gains. Which of two equal-gain items surfaces first is
// decided by array position alone, so the two must agree on every popped
// item and on the whole array after every step — that is what keeps CELF's
// seeds, evaluation counts and snapshots unchanged.
func TestCELFHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		n := rng.Intn(80)
		levels := 1 + rng.Intn(4) // at most 4 distinct gains: ties everywhere
		item := func(node int) LazyItem {
			return LazyItem{Node: graph.NodeID(node), Gain: float64(rng.Intn(levels)), Round: rng.Intn(3)}
		}
		typed := make(celfHeap, 0, n)
		for v := 0; v < n; v++ {
			typed = append(typed, item(v))
		}
		ref := append(refHeap(nil), typed...)
		typed.init()
		heap.Init(&ref)
		if !slices.Equal(typed, celfHeap(ref)) {
			t.Fatalf("seed %d: after init\n typed %v\n ref   %v", seed, typed, ref)
		}
		next := n
		for step := 0; step < 4*n+10; step++ {
			if len(typed) > 0 && rng.Intn(3) > 0 {
				got, want := typed.pop(), heap.Pop(&ref).(LazyItem)
				if got != want {
					t.Fatalf("seed %d step %d: pop = %v, want %v", seed, step, got, want)
				}
				if rng.Intn(2) == 0 {
					// CELF's re-insert: the popped item returns with a
					// refreshed, no larger gain.
					got.Gain = float64(rng.Intn(int(got.Gain) + 1))
					typed.push(got)
					heap.Push(&ref, got)
				}
			} else {
				it := item(next)
				next++
				typed.push(it)
				heap.Push(&ref, it)
			}
			if !slices.Equal(typed, celfHeap(ref)) {
				t.Fatalf("seed %d step %d: heaps diverged\n typed %v\n ref   %v", seed, step, typed, ref)
			}
		}
	}
}
