package cascade

import (
	"fmt"
	"math"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// The paper adopts its deadline-utility notion from Chen, Lu & Zhang
// (AAAI 2012), whose underlying diffusion model — IC-M, Independent
// Cascade with Meeting events — delays each activation attempt: an active
// node meets each neighbor only with probability m per step, and the
// influence coin is flipped at the first meeting. The deadline interacts
// with these delays, which is what makes time-criticality bite even on
// short paths. This file implements delayed diffusion as a substrate:
// delay distributions, weighted live-edge worlds, a bounded Dijkstra, and
// the direct IC-M simulator.

// DelayDist samples the integer delay (in time steps, >= 1) an influence
// takes to traverse an edge once the activation coin succeeds.
type DelayDist interface {
	Sample(rng *xrand.RNG) int32
	Name() string
}

// UnitDelay is the classic IC timing: influence crosses an edge in
// exactly one step.
type UnitDelay struct{}

// Sample returns 1.
func (UnitDelay) Sample(*xrand.RNG) int32 { return 1 }

// Name returns "unit".
func (UnitDelay) Name() string { return "unit" }

// GeometricDelay models IC-M meeting events: a meeting happens each step
// with probability M, so the delay is Geometric(M) with mean 1/M.
type GeometricDelay struct{ M float64 }

// Sample draws a Geometric(M) delay.
func (g GeometricDelay) Sample(rng *xrand.RNG) int32 { return int32(rng.Geometric(g.M)) }

// Name returns "geom<M>".
func (g GeometricDelay) Name() string { return fmt.Sprintf("geom%g", g.M) }

// ExponentialDelay discretizes the continuous-time IC model (transmission
// delays ~ Exp(Rate), as in Gomez-Rodriguez et al.'s network-inference
// line of work): the delay is ⌈X⌉ for X exponential with the given rate,
// so the support is {1, 2, ...} and the mean is ≈ 1/Rate + 1/2.
type ExponentialDelay struct{ Rate float64 }

// Sample draws a discretized exponential delay.
func (e ExponentialDelay) Sample(rng *xrand.RNG) int32 {
	if e.Rate <= 0 {
		panic("cascade: ExponentialDelay needs positive rate")
	}
	for {
		u := rng.Float64()
		if u == 0 {
			continue
		}
		x := -math.Log(u) / e.Rate
		d := int32(math.Ceil(x))
		if d < 1 {
			d = 1
		}
		return d
	}
}

// Name returns "exp<Rate>".
func (e ExponentialDelay) Name() string { return fmt.Sprintf("exp%g", e.Rate) }

// UniformDelay draws delays uniformly from {Min, ..., Max}.
type UniformDelay struct{ Min, Max int32 }

// Sample draws a uniform integer delay.
func (u UniformDelay) Sample(rng *xrand.RNG) int32 {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Int31n(u.Max-u.Min+1)
}

// Name returns "unif[Min,Max]".
func (u UniformDelay) Name() string { return fmt.Sprintf("unif[%d,%d]", u.Min, u.Max) }

// WeightedWorld is a live-edge world whose surviving edges carry integer
// traversal delays. A node activates at the weighted shortest distance
// from the seed set.
type WeightedWorld struct {
	offsets []int32
	targets []graph.NodeID
	delays  []int32
}

// N returns the number of nodes.
func (w *WeightedWorld) N() int { return len(w.offsets) - 1 }

// M returns the number of surviving edges.
func (w *WeightedWorld) M() int { return len(w.targets) }

// Out returns the surviving out-neighbors of v and their delays. The
// slices are shared; callers must not modify them.
func (w *WeightedWorld) Out(v graph.NodeID) ([]graph.NodeID, []int32) {
	lo, hi := w.offsets[v], w.offsets[v+1]
	return w.targets[lo:hi], w.delays[lo:hi]
}

// SampleDelayedWorld draws one weighted live-edge world: each edge
// survives with its activation probability and carries a delay from dist.
// Like SampleICWorld, the trials stream over the CSR targets beside each
// page's thresholds.
func SampleDelayedWorld(g *graph.Graph, dist DelayDist, rng *xrand.RNG) *WeightedWorld {
	n := g.N()
	offsets, targets := g.OutCSR()
	capHint := WorldCapacity(g)
	w := &WeightedWorld{
		offsets: make([]int32, n+1),
		targets: make([]graph.NodeID, 0, capHint),
		delays:  make([]int32, 0, capHint),
	}
	for v := 0; v < n; {
		thr, end := g.OutPageThresholds(graph.NodeID(v))
		base := offsets[v]
		for ; v < int(end); v++ {
			w.offsets[v] = int32(len(w.targets))
			lo, hi := offsets[v], offsets[v+1]
			row := targets[lo:hi]
			for i, t := range thr[lo-base : hi-base] {
				if rng.BernoulliT(t) {
					w.targets = append(w.targets, row[i])
					w.delays = append(w.delays, dist.Sample(rng))
				}
			}
		}
	}
	w.offsets[n] = int32(len(w.targets))
	return w
}

// SampleDelayedWorlds draws r weighted worlds in parallel, deterministic
// for fixed (g, dist, r, seed) as in SampleWorlds.
func SampleDelayedWorlds(g *graph.Graph, dist DelayDist, r int, seed int64, parallelism int) []*WeightedWorld {
	worlds, _ := SampleDelayedWorldsCancel(g, dist, r, seed, parallelism, nil)
	return worlds
}

// SampleDelayedWorldsCancel is SampleDelayedWorlds with cooperative
// cancellation, through the same loop as SampleWorldsCancel: once cancel
// is closed, workers stop between chunks of worlds and the call returns
// context.Canceled. A nil cancel never fires.
func SampleDelayedWorldsCancel(g *graph.Graph, dist DelayDist, r int, seed int64, parallelism int, cancel <-chan struct{}) ([]*WeightedWorld, error) {
	return sampleCancel(r, seed, parallelism, cancel, func(rng *xrand.RNG) *WeightedWorld { return SampleDelayedWorld(g, dist, rng) })
}

// DistItem is one DistHeap entry: a node and its tentative activation
// time.
type DistItem struct {
	Node graph.NodeID
	D    int32
}

// DistHeap is a binary min-heap of DistItems by D, the frontier of a
// bounded Dijkstra over weighted worlds. Its sift steps are
// container/heap's, comparison for comparison and swap for swap, so equal
// times surface in the order heap.Push and heap.Pop would give them; being
// typed, it moves items without boxing each one in an interface. The zero
// value is an empty heap.
type DistHeap []DistItem

// Push adds it to the heap (container/heap.Push).
func (h *DistHeap) Push(it DistItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// Pop removes and returns the item with the smallest D
// (container/heap.Pop). The heap must not be empty.
func (h *DistHeap) Pop() DistItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h DistHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[j].D >= h[i].D {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h DistHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].D < h[j1].D {
			j = j2 // right child
		}
		if h[j].D >= h[i].D {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ReachableDelayed computes each node's weighted activation time from
// seeds in w, bounded by tau: nodes farther than tau get NotActivated.
// scratch, if non-nil and of length N, is reused for the result.
func ReachableDelayed(w *WeightedWorld, seeds []graph.NodeID, tau int32, scratch []int32) []int32 {
	n := w.N()
	dist := scratch
	if len(dist) != n {
		dist = make([]int32, n)
	}
	for i := range dist {
		dist[i] = NotActivated
	}
	h := make(DistHeap, 0, len(seeds))
	for _, s := range seeds {
		if dist[s] != 0 {
			dist[s] = 0
			h.Push(DistItem{Node: s})
		}
	}
	for len(h) > 0 {
		it := h.Pop()
		if it.D != dist[it.Node] {
			continue // stale entry
		}
		targets, delays := w.Out(it.Node)
		for i, to := range targets {
			nd := it.D + delays[i]
			if nd > tau {
				continue
			}
			if dist[to] == NotActivated || nd < dist[to] {
				dist[to] = nd
				h.Push(DistItem{Node: to, D: nd})
			}
		}
	}
	return dist
}

// RunICM simulates the IC-M model directly: when a node activates, it
// schedules a meeting with each currently inactive neighbor after a
// Geometric(m) delay; at the meeting the activation coin (edge
// probability) is flipped once. Returns per-node activation times within
// tau (NotActivated otherwise). This is the reference dynamics the
// live-edge WeightedWorld representation must agree with.
func RunICM(g *graph.Graph, seeds []graph.NodeID, tau int32, m float64, rng *xrand.RNG) []int32 {
	times := make([]int32, g.N())
	for i := range times {
		times[i] = NotActivated
	}
	var h DistHeap
	activate := func(v graph.NodeID, t int32) {
		times[v] = t
		targets, probs := g.OutEdges(v)
		for i, to := range targets {
			if times[to] != NotActivated {
				continue
			}
			if !rng.Bernoulli(probs[i]) {
				continue // the influence coin fails; this edge never fires
			}
			at := t + int32(rng.Geometric(m))
			if at <= tau {
				h.Push(DistItem{Node: to, D: at})
			}
		}
	}
	for _, s := range seeds {
		if times[s] == NotActivated {
			activate(s, 0)
		}
	}
	for len(h) > 0 {
		it := h.Pop()
		if times[it.Node] != NotActivated {
			continue // already activated earlier via another edge
		}
		activate(it.Node, it.D)
	}
	return times
}
