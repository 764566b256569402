// Package influence implements the time-critical influence utility
// fτ(S;Y,G) of Eq. 1 and its group-aware estimation.
//
// The estimator averages over R live-edge worlds (see package cascade).
// An Evaluator keeps, for every world, the current activation time of
// every node under the growing seed set, plus per-group totals, over all
// worlds, of nodes activated within the deadline. A marginal-gain query
// for candidate v runs a τ-bounded BFS from v in each world, pruned at
// nodes whose current activation time is already no worse — so the query
// costs only the part of the world the candidate actually improves. On a
// fixed world set the resulting set function is exactly monotone and
// submodular.
package influence

import (
	"fmt"
	"math"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
)

// unreached is the internal "activation time" of an inactive node. It must
// compare greater than every valid deadline, including cascade.NoDeadline,
// so that inactive nodes never count as within-deadline. BFS times never
// reach it: expansion stops at d == tau <= NoDeadline < unreached.
const unreached int32 = math.MaxInt32

// Evaluator estimates fτ(S;V_i,G) for all groups i simultaneously over a
// fixed set of live-edge worlds, with incremental seed-set growth.
//
// Evaluator methods are not safe for concurrent use except GainPerGroupInto
// with distinct Scratch values, which performs read-only queries.
type Evaluator struct {
	g      *graph.Graph
	worlds []*cascade.World
	tau    int32

	dist  [][]int32 // dist[w][v]: activation time of v in world w, or unreached
	sums  []float64 // sums[i]: group-i nodes with dist <= tau, summed over worlds
	seeds []graph.NodeID

	scratch *Scratch // default scratch for the non-concurrent API
}

// Scratch holds per-query BFS state so concurrent read-only gain queries
// do not contend. Obtain with NewScratch.
type Scratch struct {
	tent  []int32 // tentative BFS time per node
	stamp []int64 // epoch marking which entries of tent are valid
	epoch int64
	queue []graph.NodeID
	delta []float64 // per-group accumulator
}

// NewEvaluator builds an evaluator for deadline tau over the given worlds.
// tau must be >= 0 (use cascade.NoDeadline for τ = ∞); at least one world
// is required.
func NewEvaluator(g *graph.Graph, worlds []*cascade.World, tau int32) (*Evaluator, error) {
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
	e := &Evaluator{g: g, worlds: worlds, tau: tau}
	e.dist = make([][]int32, len(worlds))
	for w := range worlds {
		d := make([]int32, g.N())
		for v := range d {
			d[v] = unreached
		}
		e.dist[w] = d
	}
	e.sums = make([]float64, g.NumGroups())
	e.scratch = e.NewScratch()
	return e, nil
}

// NewScratch allocates BFS scratch sized for this evaluator.
func (e *Evaluator) NewScratch() *Scratch {
	return &Scratch{
		tent:  make([]int32, e.g.N()),
		stamp: make([]int64, e.g.N()),
		delta: make([]float64, e.g.NumGroups()),
	}
}

// Tau returns the evaluator's deadline.
func (e *Evaluator) Tau() int32 { return e.tau }

// NumWorlds returns the number of Monte-Carlo worlds.
func (e *Evaluator) NumWorlds() int { return len(e.worlds) }

// SampleSize returns the number of Monte-Carlo worlds (the
// estimator.Estimator sample-budget accessor).
func (e *Evaluator) SampleSize() int { return len(e.worlds) }

// Graph returns the underlying graph.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Seeds returns the current seed set (shared slice; do not modify).
func (e *Evaluator) Seeds() []graph.NodeID { return e.seeds }

// GroupUtilities returns the current estimates of fτ(S;V_i,G) for every
// group i: expected numbers of group members activated within the deadline.
func (e *Evaluator) GroupUtilities() []float64 {
	out := make([]float64, len(e.sums))
	r := float64(len(e.worlds))
	for i, s := range e.sums {
		out[i] = s / r
	}
	return out
}

// NormGroupUtilities returns fτ(S;V_i,G)/|V_i| for every group, the
// normalized per-group utilities all figures report.
func (e *Evaluator) NormGroupUtilities() []float64 {
	out := e.GroupUtilities()
	for i := range out {
		out[i] /= float64(e.g.GroupSize(i))
	}
	return out
}

// AppendUtilities appends GroupUtilities to utils and NormGroupUtilities
// to norms without allocating when both have room.
func (e *Evaluator) AppendUtilities(utils, norms []float64) ([]float64, []float64) {
	return appendUtilities(e.g, e.sums, len(e.worlds), utils, norms)
}

// appendUtilities is AppendUtilities for the forward-MC engines, whose
// per-group utility is a sum over r worlds: u = s/r, rounded once, then
// u/|Vᵢ| — the roundings GroupUtilities and NormGroupUtilities make.
func appendUtilities(g *graph.Graph, sums []float64, r int, utils, norms []float64) ([]float64, []float64) {
	for i, s := range sums {
		u := s / float64(r)
		utils = append(utils, u)
		norms = append(norms, u/float64(g.GroupSize(i)))
	}
	return utils, norms
}

// TotalUtility returns the current estimate of fτ(S;V,G).
func (e *Evaluator) TotalUtility() float64 {
	total := 0.0
	r := float64(len(e.worlds))
	for _, s := range e.sums {
		total += s / r
	}
	return total
}

// GainPerGroup returns the expected per-group increase of fτ if v were
// added to the seed set, without modifying state. The returned slice is
// reused across calls; copy it if you need to keep it.
func (e *Evaluator) GainPerGroup(v graph.NodeID) []float64 {
	return e.GainPerGroupInto(e.scratch, v)
}

// GainPerGroupInto is GainPerGroup with caller-provided scratch; queries
// with distinct scratch values may run concurrently (the evaluator state is
// only read).
func (e *Evaluator) GainPerGroupInto(s *Scratch, v graph.NodeID) []float64 {
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

// Gain returns the expected total-influence increase of adding v.
func (e *Evaluator) Gain(v graph.NodeID) float64 {
	per := e.GainPerGroup(v)
	total := 0.0
	for _, d := range per {
		total += d
	}
	return total
}

// Add commits v to the seed set, updating all worlds.
func (e *Evaluator) Add(v graph.NodeID) {
	s := e.scratch
	for i := range s.delta {
		s.delta[i] = 0
	}
	for w := range e.worlds {
		e.bfs(s, w, v, true)
	}
	e.seeds = append(e.seeds, v)
}

// bfs runs the τ-bounded improvement BFS from v in world w. When commit is
// false it only accumulates the per-group newly-within-deadline counts into
// s.delta; when true it also writes the improved activation times and adds
// the newly counted nodes to sums.
func (e *Evaluator) bfs(s *Scratch, w int, v graph.NodeID, commit bool) {
	dist := e.dist[w]
	if dist[v] == 0 {
		return // already a seed in this world
	}
	world := e.worlds[w]
	tau := e.tau
	s.epoch++
	s.queue = s.queue[:0]

	visit := func(u graph.NodeID, d int32) {
		s.tent[u] = d
		s.stamp[u] = s.epoch
		s.queue = append(s.queue, u)
		if dist[u] > tau { // not previously counted within the deadline
			s.delta[e.g.Group(u)]++
			if commit {
				e.sums[e.g.Group(u)]++
			}
		}
		if commit {
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
				continue // BFS order guarantees first visit is shortest
			}
			if nd >= dist[to] {
				continue // no improvement; existing propagation already covers it
			}
			visit(to, nd)
		}
	}
}

// Reset clears the seed set and all per-world state.
func (e *Evaluator) Reset() {
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
// row-major buffer: row i, out[i·G:(i+1)·G], holds candidates[i]'s
// per-group gains. Workers claim chunks of rows, each with one Scratch. It
// only reads evaluator state, so it is safe before/between Adds.
// parallelism <= 0 means GOMAXPROCS. This accelerates the expensive first
// CELF pass.
func (e *Evaluator) InitialGains(candidates []graph.NodeID, parallelism int) []float64 {
	groups := e.g.NumGroups()
	out := make([]float64, len(candidates)*groups)
	estimator.ParallelChunks(len(candidates), parallelism, func() func(lo, hi int) {
		s := e.NewScratch()
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				copy(out[i*groups:(i+1)*groups], e.GainPerGroupInto(s, candidates[i]))
			}
		}
	})
	return out
}

// Disparity returns the paper's unfairness measure (Eq. 2): the maximum
// absolute pairwise difference between normalized group utilities.
func Disparity(normUtilities []float64) float64 {
	worst := 0.0
	for i := 0; i < len(normUtilities); i++ {
		for j := i + 1; j < len(normUtilities); j++ {
			if d := math.Abs(normUtilities[i] - normUtilities[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Estimate evaluates a fixed seed set on freshly sampled worlds — the
// unbiased final-report path (re-using optimization worlds overstates
// utility through the optimizer's curse). It returns per-group utilities.
func Estimate(g *graph.Graph, seeds []graph.NodeID, tau int32, model cascade.Model, samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("influence: need positive sample count")
	}
	worlds := cascade.SampleWorlds(g, model, samples, seed, 0)
	e, err := NewEvaluator(g, worlds, tau)
	if err != nil {
		return nil, err
	}
	for _, v := range seeds {
		e.Add(v)
	}
	return e.GroupUtilities(), nil
}
