package influence

import (
	"fmt"
	"math"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
)

// DiscountedEvaluator implements the time-discounted utility the paper's
// conclusion names as future work ("more complex models of
// time-criticality ... such as discounting with time"): a node activated
// at time t within the deadline contributes γ^t instead of 1, so being
// informed *earlier* is worth strictly more. The hard deadline is kept:
// nodes activated after τ contribute nothing (set τ to
// cascade.NoDeadline for pure discounting).
//
// Per live-edge world the group utility is Σ_v γ^{d(S,v)}·[d(S,v) ≤ τ],
// a facility-location-style function of S (each node's term is the max of
// γ^{d(s,v)} over seeds s) — monotone submodular, so all greedy machinery
// and guarantees carry over. Unlike the 0/1 evaluator, improving the
// activation time of an *already reached* node has positive value, which
// the marginal-gain BFS accounts for.
type DiscountedEvaluator struct {
	g      *graph.Graph
	worlds []*cascade.World
	tau    int32
	gamma  float64
	pow    []float64 // pow[d] = γ^d, d ≤ min(τ, powTableMax)

	dist  [][]int32
	sums  []float64 // Σ_w Σ_v γ^dist within deadline, per group
	seeds []graph.NodeID

	scratch *Scratch
}

// powTableMax bounds the precomputed discount table; deeper activation
// times fall back to math.Pow (they are vanishingly rare: γ^4096 ≈ 0).
const powTableMax = 4096

// NewDiscountedEvaluator builds a discounted evaluator with discount
// factor gamma in (0, 1).
func NewDiscountedEvaluator(g *graph.Graph, worlds []*cascade.World, tau int32, gamma float64) (*DiscountedEvaluator, error) {
	if len(worlds) == 0 {
		return nil, fmt.Errorf("influence: need at least one world")
	}
	if tau < 0 {
		return nil, fmt.Errorf("influence: negative deadline %d", tau)
	}
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("influence: discount factor %v outside (0,1)", gamma)
	}
	for i, w := range worlds {
		if w.N() != g.N() {
			return nil, fmt.Errorf("influence: world %d has %d nodes, graph has %d", i, w.N(), g.N())
		}
	}
	e := &DiscountedEvaluator{g: g, worlds: worlds, tau: tau, gamma: gamma}
	size := int64(tau) + 1
	if size > powTableMax {
		size = powTableMax
	}
	e.pow = make([]float64, size)
	e.pow[0] = 1
	for d := 1; d < len(e.pow); d++ {
		e.pow[d] = e.pow[d-1] * gamma
	}
	e.dist = make([][]int32, len(worlds))
	for w := range worlds {
		d := make([]int32, g.N())
		for v := range d {
			d[v] = unreached
		}
		e.dist[w] = d
	}
	e.sums = make([]float64, g.NumGroups())
	e.scratch = &Scratch{
		tent:  make([]int32, g.N()),
		stamp: make([]int64, g.N()),
		delta: make([]float64, g.NumGroups()),
	}
	return e, nil
}

// discount returns γ^d for an activation time d within the deadline, and
// 0 for times beyond it (including unreached).
func (e *DiscountedEvaluator) discount(d int32) float64 {
	if d < 0 || d > e.tau {
		return 0
	}
	if int(d) < len(e.pow) {
		return e.pow[d]
	}
	return math.Pow(e.gamma, float64(d))
}

// Graph returns the underlying graph.
func (e *DiscountedEvaluator) Graph() *graph.Graph { return e.g }

// SampleSize returns the number of Monte-Carlo worlds.
func (e *DiscountedEvaluator) SampleSize() int { return len(e.worlds) }

// Seeds returns the current seed set (shared; do not modify).
func (e *DiscountedEvaluator) Seeds() []graph.NodeID { return e.seeds }

// GroupUtilities returns the expected discounted utility per group.
func (e *DiscountedEvaluator) GroupUtilities() []float64 {
	out := make([]float64, len(e.sums))
	r := float64(len(e.worlds))
	for i, s := range e.sums {
		out[i] = s / r
	}
	return out
}

// NormGroupUtilities returns discounted utility per group divided by
// group size.
func (e *DiscountedEvaluator) NormGroupUtilities() []float64 {
	out := e.GroupUtilities()
	for i := range out {
		out[i] /= float64(e.g.GroupSize(i))
	}
	return out
}

// AppendUtilities appends GroupUtilities to utils and NormGroupUtilities
// to norms without allocating when both have room.
func (e *DiscountedEvaluator) AppendUtilities(utils, norms []float64) ([]float64, []float64) {
	return appendUtilities(e.g, e.sums, len(e.worlds), utils, norms)
}

// TotalUtility returns the expected discounted utility over all nodes.
func (e *DiscountedEvaluator) TotalUtility() float64 {
	t := 0.0
	r := float64(len(e.worlds))
	for _, s := range e.sums {
		t += s / r
	}
	return t
}

// GainPerGroup returns the expected per-group discounted-utility increase
// from adding v. The returned slice is reused across calls.
func (e *DiscountedEvaluator) GainPerGroup(v graph.NodeID) []float64 {
	s := e.scratch
	for i := range s.delta {
		s.delta[i] = 0
	}
	for w := range e.worlds {
		e.bfs(s, w, v, false)
	}
	r := float64(len(e.worlds))
	for i := range s.delta {
		s.delta[i] /= r
	}
	return s.delta
}

// Gain returns the expected total discounted-utility increase.
func (e *DiscountedEvaluator) Gain(v graph.NodeID) float64 {
	t := 0.0
	for _, d := range e.GainPerGroup(v) {
		t += d
	}
	return t
}

// Add commits v to the seed set.
func (e *DiscountedEvaluator) Add(v graph.NodeID) {
	s := e.scratch
	for i := range s.delta {
		s.delta[i] = 0
	}
	for w := range e.worlds {
		e.bfs(s, w, v, true)
	}
	e.seeds = append(e.seeds, v)
}

// bfs is the τ-bounded improvement BFS; unlike the 0/1 evaluator it
// credits improvements of already-reached nodes with the discount
// difference γ^new − γ^old.
func (e *DiscountedEvaluator) bfs(s *Scratch, w int, v graph.NodeID, commit bool) {
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

// Reset clears the seed set and all per-world state.
func (e *DiscountedEvaluator) Reset() {
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
// row-major buffer (row i holds candidates[i]'s per-group gains). The
// discounted evaluator's scratch is not sharded, so this runs
// sequentially; the discounted path is an extension, not the hot
// production path.
func (e *DiscountedEvaluator) InitialGains(candidates []graph.NodeID, parallelism int) []float64 {
	groups := e.g.NumGroups()
	out := make([]float64, len(candidates)*groups)
	for i, v := range candidates {
		copy(out[i*groups:(i+1)*groups], e.GainPerGroup(v))
	}
	return out
}

// EstimateDiscounted evaluates a fixed seed set's discounted utility on
// fresh worlds, the discounted counterpart of Estimate.
func EstimateDiscounted(g *graph.Graph, seeds []graph.NodeID, tau int32, gamma float64, model cascade.Model, samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("influence: need positive sample count")
	}
	worlds := cascade.SampleWorlds(g, model, samples, seed, 0)
	e, err := NewDiscountedEvaluator(g, worlds, tau, gamma)
	if err != nil {
		return nil, err
	}
	for _, v := range seeds {
		e.Add(v)
	}
	return e.GroupUtilities(), nil
}
