// Package influence implements the time-critical influence utility
// fτ(S;Y,G) of Eq. 1 and its group-aware estimation by forward Monte
// Carlo.
//
// The estimator averages over R live-edge worlds (see package cascade).
// One Evaluator type serves three utilities:
//
//   - the paper's 0/1 deadline utility: a node counts 1 if activated
//     within τ (NewEvaluator);
//   - the same utility under delayed diffusion such as IC-M, where worlds
//     carry integer edge delays (NewDelayedEvaluator);
//   - the time-discounted utility from the paper's future work: a node
//     activated at t ≤ τ counts γ^t (NewDiscountedEvaluator).
//
// An Evaluator keeps, for every world, the current activation time of
// every node under the growing seed set, plus per-group totals, over all
// worlds, of the utility those times earn. A marginal-gain query for
// candidate v runs a τ-bounded search from v in each world — a BFS on hop
// worlds, a Dijkstra on delayed ones — pruned at nodes whose current
// activation time is already no worse, so the query costs only the part
// of the world the candidate actually improves. On a fixed world set each
// utility is exactly monotone and submodular.
//
// A report of a fixed seed set needs no Evaluator under IC: EstimateIC
// runs one multi-source BFS per world and decides only the arcs it
// reaches (cascade.ICArcLive), so it reads the worlds SampleWorlds would
// draw without drawing them, and allocates per worker, not per world.
package influence

import (
	"fmt"
	"math"
	"sync"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
	"fairtcim/internal/par"
	"fairtcim/internal/xrand"
)

// unreached is the internal "activation time" of an inactive node. It must
// compare greater than every valid deadline, including cascade.NoDeadline,
// so that inactive nodes never count as within-deadline. Search times
// never reach it: expansion stops at d == tau <= NoDeadline < unreached.
const unreached int32 = math.MaxInt32

// Evaluator estimates a time-critical utility for all groups
// simultaneously over a fixed set of live-edge worlds, with incremental
// seed-set growth. Its constructor fixes the utility: NewEvaluator (0/1),
// NewDelayedEvaluator (0/1 over delayed worlds) or NewDiscountedEvaluator
// (γ^t); only the per-world search differs between them.
//
// Evaluator methods are not safe for concurrent use except InitialGains.
type Evaluator struct {
	g   *graph.Graph
	tau int32
	// Exactly one of worlds (hop worlds) and weighted (delayed worlds) is
	// set.
	worlds   []*cascade.World
	weighted []*cascade.WeightedWorld
	// Discounted utility only: pow[d] = γ^d, d ≤ min(τ, powTableMax-1);
	// nil for the 0/1 utility.
	gamma float64
	pow   []float64

	dist  [][]int32 // dist[w][v]: activation time of v in world w, or unreached
	sums  []float64 // sums[i]: group-i utility, summed over worlds
	seeds []graph.NodeID

	scratch *scratch // default scratch for the non-concurrent API
}

// scratch holds per-query search state so concurrent read-only gain
// queries do not contend.
type scratch struct {
	tent  []int32 // tentative search time per node
	stamp []int64 // epoch marking which entries of tent are valid
	epoch int64
	queue []graph.NodeID   // BFS frontier (hop worlds)
	heap  cascade.DistHeap // Dijkstra frontier (delayed worlds)
	delta []float64        // per-group accumulator
}

// NewEvaluator builds an evaluator of the 0/1 deadline utility for
// deadline tau over the given worlds. tau must be >= 0 (use
// cascade.NoDeadline for τ = ∞); at least one world is required.
func NewEvaluator(g *graph.Graph, worlds []*cascade.World, tau int32) (*Evaluator, error) {
	e, err := newEvaluator(g, worlds, tau)
	if err != nil {
		return nil, err
	}
	e.worlds = worlds
	return e, nil
}

// newEvaluator validates worlds and tau and allocates the state every
// utility shares; the caller attaches the worlds.
func newEvaluator[W interface{ N() int }](g *graph.Graph, worlds []W, tau int32) (*Evaluator, error) {
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
	// Every world's activation times are cut from one R×N block, each row
	// capped at its length so that no append can spill into the next.
	e := &Evaluator{g: g, tau: tau}
	n := g.N()
	block := make([]int32, len(worlds)*n)
	for v := range block {
		block[v] = unreached
	}
	e.dist = make([][]int32, len(worlds))
	for w := range worlds {
		e.dist[w] = block[w*n : (w+1)*n : (w+1)*n]
	}
	e.sums = make([]float64, g.NumGroups())
	e.scratch = e.newScratch()
	return e, nil
}

// newScratch allocates search scratch sized for this evaluator.
func (e *Evaluator) newScratch() *scratch {
	return &scratch{
		tent:  make([]int32, e.g.N()),
		stamp: make([]int64, e.g.N()),
		delta: make([]float64, e.g.NumGroups()),
	}
}

// SampleSize returns the number of Monte-Carlo worlds (the
// estimator.Estimator sample-budget accessor).
func (e *Evaluator) SampleSize() int { return len(e.dist) }

// Graph returns the underlying graph.
func (e *Evaluator) Graph() *graph.Graph { return e.g }

// Seeds returns the current seed set (shared slice; do not modify).
func (e *Evaluator) Seeds() []graph.NodeID { return e.seeds }

// GroupUtilities returns the current estimates of the utility of every
// group i: for the 0/1 utility fτ(S;V_i,G), the expected number of group
// members activated within the deadline.
func (e *Evaluator) GroupUtilities() []float64 {
	out := make([]float64, len(e.sums))
	r := float64(len(e.dist))
	for i, s := range e.sums {
		out[i] = s / r
	}
	return out
}

// NormGroupUtilities returns every group's utility divided by the group's
// size, the normalized per-group utilities all figures report.
func (e *Evaluator) NormGroupUtilities() []float64 {
	out := e.GroupUtilities()
	for i := range out {
		out[i] /= float64(e.g.GroupSize(i))
	}
	return out
}

// AppendUtilities appends GroupUtilities to utils and NormGroupUtilities
// to norms without allocating when both have room: u = s/r, rounded once,
// then u/|Vᵢ| — the roundings those methods make.
func (e *Evaluator) AppendUtilities(utils, norms []float64) ([]float64, []float64) {
	r := float64(len(e.dist))
	for i, s := range e.sums {
		u := s / r
		utils = append(utils, u)
		norms = append(norms, u/float64(e.g.GroupSize(i)))
	}
	return utils, norms
}

// TotalUtility returns the current estimate of the utility over all nodes.
func (e *Evaluator) TotalUtility() float64 {
	total := 0.0
	r := float64(len(e.dist))
	for _, s := range e.sums {
		total += s / r
	}
	return total
}

// GainPerGroup returns the expected per-group increase of the utility if v
// were added to the seed set, without modifying state. The returned slice
// is reused across calls; copy it if you need to keep it.
func (e *Evaluator) GainPerGroup(v graph.NodeID) []float64 {
	return e.gainPerGroup(e.scratch, v)
}

// gainPerGroup is GainPerGroup with caller-provided scratch; queries with
// distinct scratch values may run concurrently (the evaluator state is
// only read).
func (e *Evaluator) gainPerGroup(s *scratch, v graph.NodeID) []float64 {
	e.search(s, v, false)
	r := float64(len(e.dist))
	for i := range s.delta {
		s.delta[i] /= r
	}
	return s.delta
}

// Gain returns the expected total-utility increase of adding v.
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
	e.search(e.scratch, v, true)
	e.seeds = append(e.seeds, v)
}

// search zeroes s.delta and runs the utility's search from v in every
// world, accumulating the per-group gains into s.delta; with commit it
// also applies them. The kernel is chosen once, outside the loop over
// worlds.
func (e *Evaluator) search(s *scratch, v graph.NodeID, commit bool) {
	for i := range s.delta {
		s.delta[i] = 0
	}
	switch {
	case e.weighted != nil:
		for w := range e.weighted {
			e.dijkstra(s, w, v, commit)
		}
	case e.pow != nil:
		for w := range e.worlds {
			e.discountedBFS(s, w, v, commit)
		}
	default:
		for w := range e.worlds {
			e.bfs(s, w, v, commit)
		}
	}
}

// bfs runs the 0/1 utility's τ-bounded improvement BFS from v in world w.
// When commit is false it only accumulates the per-group newly-within-
// deadline counts into s.delta; when true it also writes the improved
// activation times and adds the newly counted nodes to sums.
func (e *Evaluator) bfs(s *scratch, w int, v graph.NodeID, commit bool) {
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
	for _, d := range e.dist {
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
// per-group gains. Workers claim chunks of rows through par.For, each
// with its own scratch. It only reads evaluator state, so it is safe
// before/between Adds. parallelism <= 0 means GOMAXPROCS. This accelerates
// the expensive first CELF pass.
func (e *Evaluator) InitialGains(candidates []graph.NodeID, parallelism int) []float64 {
	groups := e.g.NumGroups()
	out := make([]float64, len(candidates)*groups)
	// A nil cancel never fires, so For cannot fail.
	_ = par.For(len(candidates), parallelism, nil, func() func(int) {
		s := e.newScratch()
		return func(i int) {
			copy(out[i*groups:(i+1)*groups], e.gainPerGroup(s, candidates[i]))
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

// EstimateIC returns the per-group 0/1 deadline utilities of a fixed seed
// set over the r worlds cascade.SampleWorlds(g, cascade.IC, r, seed, ·)
// would draw, without drawing them. In world i it runs one τ-bounded BFS
// from every seed at once and decides, with cascade.ICArcLive on the i'th
// split of the seed stream, only the out-arcs of the nodes it reaches, and
// of those only the arcs into nodes not reached yet. So a report flips the
// coins of the part of each world its seeds reach, where sampling the
// worlds flips every arc's coin and stores each world.
//
// Per-group reach is counted in integers, so the result is bit-identical
// to NewEvaluator plus Add of every seed over the sampled worlds, at any
// parallelism. Up to parallelism workers (<= 0 means GOMAXPROCS) claim
// worlds through par.For, each with O(n) scratch, whatever r is. Once
// cancel is closed the workers stop between chunks of worlds and
// EstimateIC returns context.Canceled; a nil cancel never fires.
func EstimateIC(g *graph.Graph, seeds []graph.NodeID, tau int32, r int, seed int64, parallelism int, cancel <-chan struct{}) ([]float64, error) {
	if r <= 0 {
		return nil, fmt.Errorf("influence: need positive sample count")
	}
	if tau < 0 {
		return nil, fmt.Errorf("influence: negative deadline %d", tau)
	}
	if err := checkSeeds(g, seeds); err != nil {
		return nil, err
	}
	n := g.N()
	root := xrand.New(seed)
	offsets, targets := g.OutCSR()
	var mu sync.Mutex
	var perWorker [][]int64
	err := par.For(r, parallelism, cancel, func() func(int) {
		counts := make([]int64, g.NumGroups())
		mu.Lock()
		perWorker = append(perWorker, counts)
		mu.Unlock()
		// mark[v] == epoch: v is reached in the current world. queue holds
		// the reached nodes in BFS order, one hop level after another.
		mark := make([]uint32, n)
		queue := make([]graph.NodeID, 0, n)
		var epoch uint32
		return func(i int) {
			if epoch++; epoch == 0 {
				clear(mark)
				epoch = 1
			}
			rng := root.SplitN(int64(i))
			queue = queue[:0]
			for _, s := range seeds {
				if mark[s] != epoch {
					mark[s] = epoch
					queue = append(queue, s)
				}
			}
			head := 0
			for d := int32(0); d < tau && head < len(queue); d++ {
				for end := len(queue); head < end; head++ {
					u := queue[head]
					lo := offsets[u]
					thr, _ := g.OutPageThresholds(u)
					for j := lo; j < offsets[u+1]; j++ {
						if to := targets[j]; mark[to] != epoch && cascade.ICArcLive(rng, j, thr[j-lo]) {
							mark[to] = epoch
							queue = append(queue, to)
						}
					}
				}
			}
			for _, v := range queue {
				counts[g.Group(v)]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	util := make([]float64, g.NumGroups())
	for i := range util {
		var reached int64
		for _, counts := range perWorker {
			reached += counts[i]
		}
		util[i] = float64(reached) / float64(r)
	}
	return util, nil
}

// checkSeeds reports a seed outside g's nodes as an error, before any
// search indexes with it.
func checkSeeds(g *graph.Graph, seeds []graph.NodeID) error {
	for _, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("influence: seed %d out of range [0,%d)", v, g.N())
		}
	}
	return nil
}
