package influence

import (
	"container/heap"
	"fmt"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
)

// DelayedEvaluator is the Evaluator counterpart for delayed diffusion
// (IC-M and friends): worlds are weighted live-edge graphs and a node's
// activation time is its weighted shortest distance from the seed set.
// Marginal-gain queries run a τ-bounded Dijkstra pruned at nodes whose
// current activation time is already no worse, mirroring Evaluator's BFS.
// The estimated set function remains exactly monotone submodular on a
// fixed world set.
type DelayedEvaluator struct {
	g      *graph.Graph
	worlds []*cascade.WeightedWorld
	tau    int32

	dist  [][]int32
	sums  []float64
	seeds []graph.NodeID

	scratch *delayedScratch
}

// delayedScratch holds per-query Dijkstra state.
type delayedScratch struct {
	tent  []int32
	stamp []int64
	epoch int64
	h     delayedHeap
	delta []float64
}

type delayedHeapItem struct {
	node graph.NodeID
	d    int32
}

type delayedHeap []delayedHeapItem

func (h delayedHeap) Len() int            { return len(h) }
func (h delayedHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h delayedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayedHeap) Push(x interface{}) { *h = append(*h, x.(delayedHeapItem)) }
func (h *delayedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NewDelayedEvaluator builds an evaluator for deadline tau over weighted
// worlds.
func NewDelayedEvaluator(g *graph.Graph, worlds []*cascade.WeightedWorld, tau int32) (*DelayedEvaluator, error) {
	if len(worlds) == 0 {
		return nil, fmt.Errorf("influence: need at least one world")
	}
	if tau < 0 {
		return nil, fmt.Errorf("influence: negative deadline %d", tau)
	}
	for i, w := range worlds {
		if w.N() != g.N() {
			return nil, fmt.Errorf("influence: world %d has %d nodes, graph has %d", i, w.N(), g.N())
		}
	}
	e := &DelayedEvaluator{g: g, worlds: worlds, tau: tau}
	e.dist = make([][]int32, len(worlds))
	for w := range worlds {
		d := make([]int32, g.N())
		for v := range d {
			d[v] = unreached
		}
		e.dist[w] = d
	}
	e.sums = make([]float64, g.NumGroups())
	e.scratch = e.newScratch()
	return e, nil
}

func (e *DelayedEvaluator) newScratch() *delayedScratch {
	return &delayedScratch{
		tent:  make([]int32, e.g.N()),
		stamp: make([]int64, e.g.N()),
		delta: make([]float64, e.g.NumGroups()),
	}
}

// Tau returns the deadline.
func (e *DelayedEvaluator) Tau() int32 { return e.tau }

// Graph returns the underlying graph.
func (e *DelayedEvaluator) Graph() *graph.Graph { return e.g }

// SampleSize returns the number of weighted Monte-Carlo worlds.
func (e *DelayedEvaluator) SampleSize() int { return len(e.worlds) }

// Seeds returns the current seed set (shared; do not modify).
func (e *DelayedEvaluator) Seeds() []graph.NodeID { return e.seeds }

// GroupUtilities returns the current fτ(S;Vᵢ) estimates.
func (e *DelayedEvaluator) GroupUtilities() []float64 {
	out := make([]float64, len(e.sums))
	r := float64(len(e.worlds))
	for i, s := range e.sums {
		out[i] = s / r
	}
	return out
}

// NormGroupUtilities returns fτ(S;Vᵢ)/|Vᵢ|.
func (e *DelayedEvaluator) NormGroupUtilities() []float64 {
	out := e.GroupUtilities()
	for i := range out {
		out[i] /= float64(e.g.GroupSize(i))
	}
	return out
}

// AppendUtilities appends GroupUtilities to utils and NormGroupUtilities
// to norms without allocating when both have room.
func (e *DelayedEvaluator) AppendUtilities(utils, norms []float64) ([]float64, []float64) {
	return appendUtilities(e.g, e.sums, len(e.worlds), utils, norms)
}

// TotalUtility returns the current fτ(S;V) estimate.
func (e *DelayedEvaluator) TotalUtility() float64 {
	t := 0.0
	r := float64(len(e.worlds))
	for _, s := range e.sums {
		t += s / r
	}
	return t
}

// GainPerGroup returns the expected per-group utility increase from adding
// v. The returned slice is reused across calls.
func (e *DelayedEvaluator) GainPerGroup(v graph.NodeID) []float64 {
	return e.gainPerGroupInto(e.scratch, v)
}

func (e *DelayedEvaluator) gainPerGroupInto(s *delayedScratch, v graph.NodeID) []float64 {
	for i := range s.delta {
		s.delta[i] = 0
	}
	for w := range e.worlds {
		e.dijkstra(s, w, v, false)
	}
	r := float64(len(e.worlds))
	for i := range s.delta {
		s.delta[i] /= r
	}
	return s.delta
}

// Gain returns the expected total-utility increase from adding v.
func (e *DelayedEvaluator) Gain(v graph.NodeID) float64 {
	t := 0.0
	for _, d := range e.GainPerGroup(v) {
		t += d
	}
	return t
}

// Add commits v to the seed set.
func (e *DelayedEvaluator) Add(v graph.NodeID) {
	s := e.scratch
	for i := range s.delta {
		s.delta[i] = 0
	}
	for w := range e.worlds {
		e.dijkstra(s, w, v, true)
	}
	e.seeds = append(e.seeds, v)
}

// dijkstra runs the τ-bounded improvement search from v in world w,
// pruned at nodes whose committed activation time is already no worse.
func (e *DelayedEvaluator) dijkstra(s *delayedScratch, w int, v graph.NodeID, commit bool) {
	dist := e.dist[w]
	if dist[v] == 0 {
		return
	}
	world := e.worlds[w]
	tau := e.tau
	s.epoch++
	s.h = s.h[:0]

	relax := func(u graph.NodeID, d int32) {
		s.tent[u] = d
		s.stamp[u] = s.epoch
		heap.Push(&s.h, delayedHeapItem{node: u, d: d})
	}
	relax(v, 0)
	for s.h.Len() > 0 {
		it := heap.Pop(&s.h).(delayedHeapItem)
		u, d := it.node, it.d
		if s.stamp[u] != s.epoch || s.tent[u] != d {
			continue // stale
		}
		// Settle u: it improves from dist[u] to d.
		if dist[u] > tau { // previously outside the deadline: newly counted
			s.delta[e.g.Group(u)]++
			if commit {
				e.sums[e.g.Group(u)]++
			}
		}
		if commit {
			dist[u] = d
		}
		s.stamp[u] = -s.epoch // settled marker: never re-relax this query
		targets, delays := world.Out(u)
		for i, to := range targets {
			nd := d + delays[i]
			if nd > tau {
				continue
			}
			if nd >= dist[to] {
				continue // committed time already at least as good
			}
			if s.stamp[to] == -s.epoch {
				continue // settled this query
			}
			if s.stamp[to] == s.epoch && s.tent[to] <= nd {
				continue // better tentative already queued
			}
			relax(to, nd)
		}
	}
}

// Reset clears the seed set and all per-world state.
func (e *DelayedEvaluator) Reset() {
	for w := range e.worlds {
		d := e.dist[w]
		for v := range d {
			d[v] = unreached
		}
	}
	for i := range e.sums {
		e.sums[i] = 0
	}
	e.seeds = e.seeds[:0]
}

// InitialGains computes GainPerGroup for every candidate into one flat,
// row-major buffer, in parallel chunks with one scratch per worker; safe
// because queries only read evaluator state.
func (e *DelayedEvaluator) InitialGains(candidates []graph.NodeID, parallelism int) []float64 {
	groups := e.g.NumGroups()
	out := make([]float64, len(candidates)*groups)
	estimator.ParallelChunks(len(candidates), parallelism, func() func(lo, hi int) {
		s := e.newScratch()
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				copy(out[i*groups:(i+1)*groups], e.gainPerGroupInto(s, candidates[i]))
			}
		}
	})
	return out
}

// EstimateDelayed evaluates a fixed seed set under delayed diffusion on
// fresh weighted worlds, the delayed counterpart of Estimate.
func EstimateDelayed(g *graph.Graph, seeds []graph.NodeID, tau int32, delay cascade.DelayDist, samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("influence: need positive sample count")
	}
	worlds := cascade.SampleDelayedWorlds(g, delay, samples, seed, 0)
	e, err := NewDelayedEvaluator(g, worlds, tau)
	if err != nil {
		return nil, err
	}
	for _, v := range seeds {
		e.Add(v)
	}
	return e.GroupUtilities(), nil
}
