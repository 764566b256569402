package influence

import (
	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
)

// NewDelayedEvaluator builds an evaluator of the 0/1 deadline utility
// under delayed diffusion (IC-M and friends): worlds are weighted
// live-edge graphs and a node's activation time is its weighted shortest
// distance from the seed set. Marginal-gain queries run a τ-bounded
// Dijkstra pruned at nodes whose current activation time is already no
// worse, mirroring the BFS of NewEvaluator. The estimated set function
// remains exactly monotone submodular on a fixed world set.
func NewDelayedEvaluator(g *graph.Graph, worlds []*cascade.WeightedWorld, tau int32) (*Evaluator, error) {
	e, err := newEvaluator(g, worlds, tau)
	if err != nil {
		return nil, err
	}
	e.weighted = worlds
	return e, nil
}

// dijkstra runs the τ-bounded improvement search from v in weighted world
// w, pruned at nodes whose committed activation time is already no worse.
func (e *Evaluator) dijkstra(s *scratch, w int, v graph.NodeID, commit bool) {
	dist := e.dist[w]
	if dist[v] == 0 {
		return
	}
	world := e.weighted[w]
	tau := e.tau
	s.epoch++
	s.heap = s.heap[:0]

	relax := func(u graph.NodeID, d int32) {
		s.tent[u] = d
		s.stamp[u] = s.epoch
		s.heap.Push(cascade.DistItem{Node: u, D: d})
	}
	relax(v, 0)
	for len(s.heap) > 0 {
		it := s.heap.Pop()
		u, d := it.Node, it.D
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
