package cascade

import (
	"math"
	"sync"

	"fairtcim/internal/graph"
	"fairtcim/internal/par"
	"fairtcim/internal/xrand"
)

// World is one deterministic live-edge subgraph sampled from the diffusion
// model, stored in compressed sparse row form. Node ids are those of the
// source graph.
type World struct {
	offsets []int32
	targets []graph.NodeID
}

// Out returns the surviving out-neighbors of v in this world. The slice is
// shared; callers must not modify it.
func (w *World) Out(v graph.NodeID) []graph.NodeID {
	return w.targets[w.offsets[v]:w.offsets[v+1]]
}

// N returns the number of nodes.
func (w *World) N() int { return len(w.offsets) - 1 }

// M returns the number of surviving edges.
func (w *World) M() int { return len(w.targets) }

// WorldCapacity sizes a live-edge buffer from the expected number of
// surviving edges plus three standard deviations (the survivor count is a
// sum of independent Bernoullis, so its variance is at most its mean) —
// almost never reallocates, never wildly overallocates.
func WorldCapacity(g *graph.Graph) int {
	mean := g.ExpectedLiveEdges()
	return int(mean+3*math.Sqrt(mean)) + 8
}

// SampleICWorld draws one IC live-edge world: every edge survives
// independently with its activation probability. The trials stream over
// the graph's CSR targets beside each page's thresholds, using the
// precomputed integer thresholds, so the per-edge cost is one generator
// step plus one compare.
func SampleICWorld(g *graph.Graph, rng *xrand.RNG) *World {
	n := g.N()
	offsets, targets := g.OutCSR()
	w := &World{offsets: make([]int32, n+1)}
	w.targets = make([]graph.NodeID, 0, WorldCapacity(g))
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
				}
			}
		}
	}
	w.offsets[n] = int32(len(w.targets))
	return w
}

// ICArcLive reports whether arc j — its index in g.OutCSR, whose threshold
// is t — survives in the world SampleICWorld(g, rng) draws. That sampler
// spends exactly one output of rng per arc, in CSR order, so arc j's coin
// is rng's j-th output and can be computed alone: a search that reads a
// few arcs of a world need not draw the others.
func ICArcLive(rng *xrand.RNG, j int32, t uint64) bool {
	return rng.At(uint64(j))>>11 < t // BernoulliT's test on that output
}

// ltScratch is the pooled per-call working state of SampleLTWorld: the
// chosen-in-neighbor and degree/fill arrays are only needed while one
// world is being assembled, so repeated sampling (forward-MC accuracy
// sizing draws thousands of worlds) reuses them instead of allocating
// three n-sized slices per world.
type ltScratch struct {
	chosen []graph.NodeID
	outDeg []int32
	fill   []int32
}

var ltPool = sync.Pool{New: func() any { return &ltScratch{} }}

// grabLT readies a pooled LT scratch for n nodes; outDeg is returned
// zeroed, chosen and fill are fully overwritten by the sampler.
func grabLT(n int) *ltScratch {
	sc := ltPool.Get().(*ltScratch)
	if cap(sc.chosen) < n {
		sc.chosen = make([]graph.NodeID, n)
		sc.outDeg = make([]int32, n)
		sc.fill = make([]int32, n)
	}
	sc.chosen = sc.chosen[:n]
	sc.outDeg = sc.outDeg[:n]
	sc.fill = sc.fill[:n]
	for i := range sc.outDeg {
		sc.outDeg[i] = 0
	}
	return sc
}

// SampleLTWorld draws one LT live-edge world: each node keeps at most one
// incoming edge, chosen with probability proportional to its (normalized)
// weight; the kept reverse edge is stored in forward orientation. This is
// the classical LT live-edge distribution of Kempe et al.
func SampleLTWorld(g *graph.Graph, rng *xrand.RNG) *World {
	n := g.N()
	scale := ltScales(g)
	sc := grabLT(n)
	defer ltPool.Put(sc)
	// chosen[v] = the single in-neighbor v keeps, or -1.
	chosen := sc.chosen
	outDeg := sc.outDeg
	for v := 0; v < n; v++ {
		chosen[v] = -1
		sources, probs := g.InEdges(graph.NodeID(v))
		if len(sources) == 0 {
			continue
		}
		u := rng.Float64()
		acc := 0.0
		for i, src := range sources {
			acc += probs[i] * scale[v]
			if u < acc {
				chosen[v] = src
				outDeg[src]++
				break
			}
		}
	}
	w := &World{offsets: make([]int32, n+1)}
	total := int32(0)
	for v := 0; v < n; v++ {
		w.offsets[v] = total
		total += outDeg[v]
	}
	w.offsets[n] = total
	w.targets = make([]graph.NodeID, total)
	fill := sc.fill
	copy(fill, w.offsets[:n])
	for v := 0; v < n; v++ {
		if u := chosen[v]; u >= 0 {
			w.targets[fill[u]] = graph.NodeID(v)
			fill[u]++
		}
	}
	return w
}

// Model selects the diffusion model worlds are sampled from.
type Model int

// Supported diffusion models.
const (
	IC Model = iota // Independent Cascade (the paper's model)
	LT              // Linear Threshold (extension, §3.1)
)

// String returns the conventional abbreviation.
func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return "unknown"
	}
}

// SampleWorlds draws r live-edge worlds in parallel. The result is
// deterministic for a given (g, model, r, seed): world i is always drawn
// from the i'th split of the seed stream, independent of scheduling.
// parallelism <= 0 means GOMAXPROCS.
func SampleWorlds(g *graph.Graph, model Model, r int, seed int64, parallelism int) []*World {
	worlds, _ := SampleWorldsCancel(g, model, r, seed, parallelism, nil)
	return worlds
}

// SampleWorldsCancel is SampleWorlds with cooperative cancellation: once
// cancel is closed, workers stop between chunks of worlds and the call
// returns context.Canceled. A nil cancel never fires, making this the
// common implementation for both entry points.
func SampleWorldsCancel(g *graph.Graph, model Model, r int, seed int64, parallelism int, cancel <-chan struct{}) ([]*World, error) {
	sample := SampleICWorld
	if model == LT {
		sample = SampleLTWorld
	}
	return sampleCancel(r, seed, parallelism, cancel, func(rng *xrand.RNG) *World { return sample(g, rng) })
}

// sampleCancel is the loop behind every world sampler: up to parallelism
// workers (<= 0 means GOMAXPROCS) draw r worlds through par.For, world i
// always from the i'th split of the seed stream, so the result does not
// depend on scheduling. Once cancel is closed the workers stop between
// chunks of worlds and the call returns context.Canceled. A nil cancel
// never fires.
func sampleCancel[W any](r int, seed int64, parallelism int, cancel <-chan struct{}, draw func(*xrand.RNG) W) ([]W, error) {
	root := xrand.New(seed)
	worlds := make([]W, r)
	err := par.For(r, parallelism, cancel, func() func(int) {
		// The compiler cannot see through draw, so its argument escapes.
		// No sampler keeps the RNG past the call, so each worker
		// allocates one and overwrites it for every world. Every edge
		// trial writes it, so it fills a 64-byte block of its own: two
		// workers' RNGs on one cache line would contend.
		rng := &new(struct {
			xrand.RNG
			_ [48]byte
		}).RNG
		return func(i int) {
			*rng = *root.SplitN(int64(i))
			worlds[i] = draw(rng)
		}
	})
	if err != nil {
		return nil, err
	}
	return worlds, nil
}

// Reachable runs a τ-bounded BFS in w from seeds and returns each node's
// hop distance, or NotActivated for nodes beyond the deadline. The scratch
// slice, if non-nil and of length N, is reused as the result to avoid
// allocation in hot loops.
func Reachable(w *World, seeds []graph.NodeID, tau int32, scratch []int32) []int32 {
	n := w.N()
	dist := scratch
	if len(dist) != n {
		dist = make([]int32, n)
	}
	for i := range dist {
		dist[i] = NotActivated
	}
	queue := make([]graph.NodeID, 0, len(seeds))
	for _, s := range seeds {
		if dist[s] == NotActivated {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v]
		if d >= tau {
			continue
		}
		for _, to := range w.Out(v) {
			if dist[to] == NotActivated {
				dist[to] = d + 1
				queue = append(queue, to)
			}
		}
	}
	return dist
}
