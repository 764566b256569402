// Package ris implements reverse influence sampling (RIS) specialized to
// the time-critical setting — a scalability extension beyond the paper's
// forward Monte-Carlo estimator.
//
// A τ-bounded reverse-reachable (RR) set for root v is drawn by a reverse
// BFS of depth ≤ τ from v, flipping each incoming edge alive with its
// activation probability. The standard RIS identity, restricted to the
// deadline, gives
//
//	fτ(S;Vᵢ) = |Vᵢ| · Pr[ S ∩ RR(v) ≠ ∅ ],  v uniform in Vᵢ,
//
// so sampling a pool of RR sets per group turns every group utility into a
// set-coverage function of S — exactly monotone submodular, and cheap to
// evaluate incrementally through an inverted index. Greedy/CELF over this
// coverage objective is the classical RIS maximizer (Borgs et al.; TIM/IMM)
// adapted to per-group deadline-bounded pools.
package ris

import (
	"fmt"
	"sort"
	"sync"

	"fairtcim/internal/graph"
	"fairtcim/internal/par"
	"fairtcim/internal/xrand"
)

// Collection is a sampled family of τ-bounded RR sets, pooled per group,
// with an inverted node→sets index stored as one flat CSR-style arena:
// refs[off[v]:off[v+1]] are the flat ids of the RR sets containing node v,
// strictly increasing. Flat ids enumerate sets group-major — group i owns
// ids [base[i], base[i+1]) — so the group of a ref is recovered by walking
// base alongside the sorted refs, and the whole index is two cache-friendly
// slices instead of one small heap block per node.
//
// A built Collection is immutable: Sample is the only writer, and every
// method only reads. It is therefore safe to share one Collection across
// any number of goroutines, each wrapping it in its own Estimator — the
// serving layer (internal/server) relies on this to answer concurrent
// queries from a single cached sketch without re-sampling.
type Collection struct {
	g        *graph.Graph
	tau      int32
	poolSize []int   // RR sets sampled per group
	base     []int32 // base[i] = first flat id of group i; base[len] = total
	off      []int32 // off[v]..off[v+1] bounds node v's refs
	refs     []int32 // flat RR-set ids, strictly increasing per node
}

// groupBases converts per-group pool sizes to flat-id group boundaries.
func groupBases(poolSize []int) []int32 {
	base := make([]int32, len(poolSize)+1)
	for i, s := range poolSize {
		base[i+1] = base[i] + int32(s)
	}
	return base
}

// groupOfFlat returns the group owning flat set id.
func groupOfFlat(base []int32, flat int32) int {
	return sort.Search(len(base)-1, func(i int) bool { return base[i+1] > flat })
}

// samplerScratch is the pooled per-worker state of a sampling run: the
// epoch-marked visited array, BFS queue/depth buffers, and the arena the
// worker's RR sets are appended into. Pooling it removes the dominant
// allocation churn from repeated sampling — in particular the geometric
// doubling rounds of SampleForAccuracy, which resample the whole pool
// several times per call.
type samplerScratch struct {
	visited []uint32       // visited[v] == epoch marks v reached in the current BFS
	epoch   uint32         // the epoch of this scratch's latest BFS
	queue   []graph.NodeID // BFS frontier
	depth   []int32        // parallel hop depths
	arena   []graph.NodeID // concatenated RR sets of this worker
	spans   []setSpan      // where each sampled set lives in arena
}

// setSpan locates one RR set inside a worker arena.
type setSpan struct {
	flat       int32
	start, end int32
}

var samplerPool = sync.Pool{New: func() any { return &samplerScratch{} }}

// grab readies a pooled scratch for an n-node graph. Grown (or fresh)
// visited memory is zero — epochs start at 1, so zero never matches.
func grabScratch(n int) *samplerScratch {
	sc := samplerPool.Get().(*samplerScratch)
	if cap(sc.visited) < n {
		sc.visited, sc.epoch = make([]uint32, n), 0
	}
	sc.visited = sc.visited[:n]
	sc.arena = sc.arena[:0]
	sc.spans = sc.spans[:0]
	return sc
}

// Sample draws perGroup[i] RR sets rooted uniformly in group i. The result
// is deterministic for fixed arguments; parallelism <= 0 means GOMAXPROCS.
func Sample(g *graph.Graph, tau int32, perGroup []int, seed int64, parallelism int) (*Collection, error) {
	return SampleCancel(g, tau, perGroup, seed, parallelism, nil)
}

// SampleCancel is Sample with cooperative cancellation: once cancel is
// closed, workers stop between chunks of RR sets and the call returns
// context.Canceled. A nil cancel never fires. Sampling a multi-second pool
// is therefore interruptible, not just the greedy loop that follows it.
func SampleCancel(g *graph.Graph, tau int32, perGroup []int, seed int64, parallelism int, cancel <-chan struct{}) (*Collection, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("ris: empty graph")
	}
	if tau < 0 {
		return nil, fmt.Errorf("ris: negative deadline %d", tau)
	}
	if len(perGroup) != g.NumGroups() {
		return nil, fmt.Errorf("ris: %d pool sizes for %d groups", len(perGroup), g.NumGroups())
	}
	total := 0
	for i, c := range perGroup {
		if c <= 0 {
			return nil, fmt.Errorf("ris: pool size for group %d must be positive", i)
		}
		total += c
	}
	base := groupBases(perGroup)
	off, refs, err := drawAndIndex(g, tau, base, make([][]graph.NodeID, total), nil, seed, parallelism, cancel)
	if err != nil {
		return nil, err
	}
	return &Collection{
		g:        g,
		tau:      tau,
		poolSize: append([]int(nil), perGroup...),
		base:     base,
		off:      off,
		refs:     refs,
	}, nil
}

// drawAndIndex draws a fresh τ-bounded RR set under g into sets[flat] for
// every flat id in ids — for every set when ids is nil — and then indexes
// all of sets over g's nodes (see indexRefs). Set flat draws its root
// uniformly from its group's members (base maps flat ids to groups) and
// its coins from the flat id's split of seed, so a set does not depend on
// which worker draws it. Each worker samples into its own pooled arena and
// records spans, which are resolved into sets once every worker is done.
// Once cancel is closed the workers stop between chunks of sets and the
// call returns context.Canceled.
func drawAndIndex(g *graph.Graph, tau int32, base []int32, sets [][]graph.NodeID, ids []int32, seed int64, parallelism int, cancel <-chan struct{}) (off, refs []int32, err error) {
	draws := len(ids)
	if ids == nil {
		draws = len(sets)
	}
	members := make([][]graph.NodeID, g.NumGroups())
	for i := range members {
		members[i] = g.GroupMembers(i)
	}
	root := xrand.New(seed)
	var mu sync.Mutex
	var scratches []*samplerScratch
	defer func() {
		for _, sc := range scratches {
			samplerPool.Put(sc)
		}
	}()
	err = par.For(draws, parallelism, cancel, func() func(int) {
		sc := grabScratch(g.N())
		mu.Lock()
		scratches = append(scratches, sc)
		mu.Unlock()
		return func(i int) {
			flat := int32(i)
			if ids != nil {
				flat = ids[i]
			}
			rng := root.SplitN(int64(flat))
			pool := members[groupOfFlat(base, flat)]
			start := int32(len(sc.arena))
			reverseBFS(g, pool[rng.Intn(len(pool))], tau, rng, sc)
			sc.spans = append(sc.spans, setSpan{flat: flat, start: start, end: int32(len(sc.arena))})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for _, sc := range scratches {
		for _, sp := range sc.spans {
			sets[sp.flat] = sc.arena[sp.start:sp.end]
		}
	}
	off, refs = indexRefs(g.N(), sets)
	return off, refs, nil
}

// indexRefs builds the inverted index of sets over n nodes: node v's refs
// are refs[off[v]:off[v+1]], the flat ids of the sets holding v in
// ascending order. It counts each node's refs into off[v], prefix-sums
// them so off[v] is row v's end, then scatters flat ids in descending
// order, each one stepping its node's cursor down, so every cursor ends at
// its row's start. A set must not hold a node twice.
func indexRefs(n int, sets [][]graph.NodeID) (off, refs []int32) {
	off = make([]int32, n+1)
	for _, set := range sets {
		for _, v := range set {
			off[v]++
		}
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	refs = make([]int32, off[n])
	for flat := len(sets) - 1; flat >= 0; flat-- {
		for _, v := range sets[flat] {
			off[v]--
			refs[off[v]] = int32(flat)
		}
	}
	return off, refs
}

// reverseBFS collects the τ-bounded reverse-reachable set of root into the
// scratch arena, flipping each incoming edge alive with its probability.
// Each BFS marks visited nodes with the scratch's next epoch, so a stale
// mark from any earlier use, job or graph never matches; the visited array
// is cleared only when the 32-bit epoch wraps, once per 2^32 sets.
func reverseBFS(g *graph.Graph, root graph.NodeID, tau int32, rng *xrand.RNG, sc *samplerScratch) {
	inOffsets, inTargets := g.InCSR()
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	epoch := sc.epoch
	q := sc.queue[:0]
	depth := sc.depth[:0]
	sc.visited[root] = epoch
	q = append(q, root)
	depth = append(depth, 0)
	sc.arena = append(sc.arena, root)
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := depth[head]
		if d >= tau {
			continue
		}
		srcs := inTargets[inOffsets[v]:inOffsets[v+1]]
		thresh := g.InThresholds(v)[:len(srcs)]
		for i, src := range srcs {
			if sc.visited[src] == epoch {
				continue
			}
			if !rng.BernoulliT(thresh[i]) {
				continue
			}
			sc.visited[src] = epoch
			q = append(q, src)
			depth = append(depth, d+1)
			sc.arena = append(sc.arena, src)
		}
	}
	sc.queue = q
	sc.depth = depth
}

// Graph returns the underlying graph.
func (c *Collection) Graph() *graph.Graph { return c.g }

// Tau returns the deadline RR sets were bounded by.
func (c *Collection) Tau() int32 { return c.tau }

// PoolSizes returns the number of RR sets per group.
func (c *Collection) PoolSizes() []int { return c.poolSize }

// NumSets returns the total number of RR sets.
func (c *Collection) NumSets() int { return int(c.base[len(c.base)-1]) }

// NumRefs returns the total size of the inverted index — the sum of all
// RR-set sizes. It is the byte-budget driver of the persisted frame.
func (c *Collection) NumRefs() int { return len(c.refs) }

// IndexedNodes returns the nodes that lie in at least one RR set: every
// such node in ascending order when within is nil, else the members of
// within that qualify, in within's order. Any other node covers no set, so
// its gain is 0 on every seed set and a greedy run never picks it. The
// list is allocated once, at its exact size.
func (c *Collection) IndexedNodes(within []graph.NodeID) []graph.NodeID {
	size := len(within)
	if within == nil {
		size = c.g.N()
	}
	node := func(i int) graph.NodeID {
		if within == nil {
			return graph.NodeID(i)
		}
		return within[i]
	}
	n := 0
	for i := range size {
		if v := node(i); c.off[v] < c.off[v+1] {
			n++
		}
	}
	out := make([]graph.NodeID, 0, n)
	for i := range size {
		if v := node(i); c.off[v] < c.off[v+1] {
			out = append(out, v)
		}
	}
	return out
}

// Estimator evaluates group utilities of a growing seed set against a
// Collection by incremental RR-set coverage. It satisfies the
// estimator.Estimator interface, so every fairim solver and experiment
// can run on RIS estimates instead of forward Monte Carlo.
//
// Estimator methods are not safe for concurrent use except InitialGains,
// whose workers only read coverage state and write disjoint rows. The
// per-estimator coverage state is cheap relative to the Collection, so
// concurrent solves should each construct their own Estimator over the
// shared, read-only Collection.
type Estimator struct {
	c       *Collection
	covered []uint64 // bitset over flat set ids
	count   []int    // covered sets per group
	seeds   []graph.NodeID
	delta   []float64 // scratch returned by GainPerGroup
}

// NewEstimator starts from the empty seed set.
func NewEstimator(c *Collection) *Estimator {
	return &Estimator{
		c:       c,
		covered: make([]uint64, (c.NumSets()+63)/64),
		count:   make([]int, len(c.poolSize)),
		delta:   make([]float64, len(c.poolSize)),
	}
}

// Collection returns the RR-set family this estimator evaluates against.
func (e *Estimator) Collection() *Collection { return e.c }

// Graph returns the underlying graph.
func (e *Estimator) Graph() *graph.Graph { return e.c.g }

// SampleSize returns the smallest per-group RR-pool size — the budget that
// bounds every group's estimation error.
func (e *Estimator) SampleSize() int {
	m := 0
	for i, s := range e.c.poolSize {
		if i == 0 || s < m {
			m = s
		}
	}
	return m
}

// GainPerGroup returns the estimated per-group utility increase from
// adding v. The returned slice is reused; copy to keep.
func (e *Estimator) GainPerGroup(v graph.NodeID) []float64 {
	return e.gainPerGroupInto(e.delta, v)
}

// gainPerGroupInto computes the per-group coverage gain of v into delta.
// It only reads estimator state, so calls with distinct delta slices may
// run concurrently. Refs are sorted by flat id, so the owning group is
// tracked by walking base forward — no per-ref group field or search.
func (e *Estimator) gainPerGroupInto(delta []float64, v graph.NodeID) []float64 {
	for i := range delta {
		delta[i] = 0
	}
	c := e.c
	grp := 0
	for _, id := range c.refs[c.off[v]:c.off[v+1]] {
		for id >= c.base[grp+1] {
			grp++
		}
		if e.covered[uint32(id)>>6]&(1<<(uint32(id)&63)) == 0 {
			delta[grp]++
		}
	}
	for i := range delta {
		delta[i] *= float64(c.g.GroupSize(i)) / float64(c.poolSize[i])
	}
	return delta
}

// InitialGains computes GainPerGroup for every candidate into one flat,
// row-major buffer: row i, out[i·G:(i+1)·G], holds candidates[i]'s
// per-group gains. A node in no RR set covers nothing, so its row is 0;
// solvers pass only IndexedNodes. Rows are filled in parallel chunks
// straight from the index, with no scratch. It only reads estimator state,
// so it is safe before/between Adds. parallelism <= 0 means GOMAXPROCS.
func (e *Estimator) InitialGains(candidates []graph.NodeID, parallelism int) []float64 {
	groups := len(e.c.poolSize)
	out := make([]float64, len(candidates)*groups)
	// A nil cancel never fires, so For cannot fail.
	_ = par.For(len(candidates), parallelism, nil, func() func(int) {
		return func(i int) {
			e.gainPerGroupInto(out[i*groups:(i+1)*groups], candidates[i])
		}
	})
	return out
}

// Gain returns the estimated total-utility increase from adding v.
func (e *Estimator) Gain(v graph.NodeID) float64 {
	t := 0.0
	for _, d := range e.GainPerGroup(v) {
		t += d
	}
	return t
}

// Add commits v to the seed set.
func (e *Estimator) Add(v graph.NodeID) {
	c := e.c
	grp := 0
	for _, id := range c.refs[c.off[v]:c.off[v+1]] {
		for id >= c.base[grp+1] {
			grp++
		}
		w, bit := uint32(id)>>6, uint64(1)<<(uint32(id)&63)
		if e.covered[w]&bit == 0 {
			e.covered[w] |= bit
			e.count[grp]++
		}
	}
	e.seeds = append(e.seeds, v)
}

// Seeds returns the current seed set (shared; do not modify).
func (e *Estimator) Seeds() []graph.NodeID { return e.seeds }

// GroupUtilities returns the estimated fτ(S;Vᵢ) for every group.
func (e *Estimator) GroupUtilities() []float64 {
	out := make([]float64, len(e.count))
	for i, cnt := range e.count {
		out[i] = float64(cnt) / float64(e.c.poolSize[i]) * float64(e.c.g.GroupSize(i))
	}
	return out
}

// NormGroupUtilities returns fτ(S;Vᵢ)/|Vᵢ|: the covered fraction of each
// group's RR pool.
func (e *Estimator) NormGroupUtilities() []float64 {
	out := make([]float64, len(e.count))
	for i, cnt := range e.count {
		out[i] = float64(cnt) / float64(e.c.poolSize[i])
	}
	return out
}

// AppendUtilities appends GroupUtilities to utils and NormGroupUtilities
// to norms without allocating when both have room. The covered fraction
// is rounded once and scaled by the group size, the same two roundings
// GroupUtilities makes.
func (e *Estimator) AppendUtilities(utils, norms []float64) ([]float64, []float64) {
	for i, cnt := range e.count {
		norm := float64(cnt) / float64(e.c.poolSize[i])
		utils = append(utils, norm*float64(e.c.g.GroupSize(i)))
		norms = append(norms, norm)
	}
	return utils, norms
}

// TotalUtility returns the estimated fτ(S;V).
func (e *Estimator) TotalUtility() float64 {
	t := 0.0
	for _, u := range e.GroupUtilities() {
		t += u
	}
	return t
}

// Reset clears the seed set.
func (e *Estimator) Reset() {
	for i := range e.covered {
		e.covered[i] = 0
	}
	for i := range e.count {
		e.count[i] = 0
	}
	e.seeds = e.seeds[:0]
}
