package influence

import (
	"fmt"
	"math"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
)

// powTableMax bounds the precomputed discount table; deeper activation
// times fall back to math.Pow (they are vanishingly rare: γ^4096 ≈ 0).
const powTableMax = 4096

// NewDiscountedEvaluator builds an evaluator of the time-discounted
// utility the paper's conclusion names as future work ("more complex
// models of time-criticality ... such as discounting with time"), with
// discount factor gamma in (0, 1): a node activated at time t within the
// deadline contributes γ^t instead of 1, so being informed *earlier* is
// worth strictly more. The hard deadline is kept: nodes activated after τ
// contribute nothing (set τ to cascade.NoDeadline for pure discounting).
//
// Per live-edge world the group utility is Σ_v γ^{d(S,v)}·[d(S,v) ≤ τ],
// a facility-location-style function of S (each node's term is the max of
// γ^{d(s,v)} over seeds s) — monotone submodular, so all greedy machinery
// and guarantees carry over. Unlike the 0/1 utility, improving the
// activation time of an *already reached* node has positive value, which
// the marginal-gain BFS accounts for.
func NewDiscountedEvaluator(g *graph.Graph, worlds []*cascade.World, tau int32, gamma float64) (*Evaluator, error) {
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("influence: discount factor %v outside (0,1)", gamma)
	}
	e, err := newEvaluator(g, worlds, tau)
	if err != nil {
		return nil, err
	}
	e.worlds = worlds
	e.gamma = gamma
	e.pow = make([]float64, min(int64(tau)+1, powTableMax))
	e.pow[0] = 1
	for d := 1; d < len(e.pow); d++ {
		e.pow[d] = e.pow[d-1] * gamma
	}
	return e, nil
}

// discount returns γ^d for an activation time d within the deadline, and
// 0 for times beyond it (including unreached).
func (e *Evaluator) discount(d int32) float64 {
	if d < 0 || d > e.tau {
		return 0
	}
	if int(d) < len(e.pow) {
		return e.pow[d]
	}
	return math.Pow(e.gamma, float64(d))
}

// discountedBFS is the discounted utility's τ-bounded improvement BFS;
// unlike bfs it credits improvements of already-reached nodes with the
// discount difference γ^new − γ^old.
func (e *Evaluator) discountedBFS(s *scratch, w int, v graph.NodeID, commit bool) {
	dist := e.dist[w]
	if dist[v] == 0 {
		return
	}
	world := e.worlds[w]
	tau := e.tau
	s.epoch++
	s.queue = s.queue[:0]

	visit := func(u graph.NodeID, d int32) {
		s.tent[u] = d
		s.stamp[u] = s.epoch
		s.queue = append(s.queue, u)
		gain := e.discount(d) - e.discount(dist[u])
		s.delta[e.g.Group(u)] += gain
		if commit {
			e.sums[e.g.Group(u)] += gain
			dist[u] = d
		}
	}
	visit(v, 0)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		d := s.tent[u]
		if d >= tau {
			continue
		}
		nd := d + 1
		for _, to := range world.Out(u) {
			if s.stamp[to] == s.epoch {
				continue
			}
			if nd >= dist[to] {
				continue
			}
			visit(to, nd)
		}
	}
}
