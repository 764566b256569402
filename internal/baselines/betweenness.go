package baselines

import (
	"fairtcim/internal/graph"
	"fairtcim/internal/par"
	"fairtcim/internal/xrand"
)

// betweennessBlocks is the number of contiguous source blocks Betweenness
// sums separately, each into its own row of n floats. It is fixed rather
// than tied to parallelism, so the sums come out bit-identical at every
// worker count, and small, since every block holds a row.
const betweennessBlocks = 16

// Betweenness computes (unweighted, directed) betweenness centrality with
// Brandes' algorithm (2001): one BFS plus a dependency back-propagation
// per source, O(V·E) total. The influence-maximization literature the
// paper cites uses high-betweenness nodes as a classical seeding
// heuristic (Kourtellis et al. 2013).
//
// sampleSources > 0 estimates centrality from that many uniformly chosen
// sources (scaled to the full-source value), the standard approximation
// for large graphs; <= 0 uses every node as a source. parallelism <= 0
// means GOMAXPROCS; the scores are bit-identical at every parallelism.
func Betweenness(g *graph.Graph, sampleSources int, seed int64, parallelism int) []float64 {
	n := g.N()
	sources := make([]graph.NodeID, 0, n)
	if sampleSources > 0 && sampleSources < n {
		rng := xrand.New(seed)
		for _, idx := range rng.Sample(n, sampleSources) {
			sources = append(sources, graph.NodeID(idx))
		}
	} else {
		sources = g.Nodes()
	}
	// Block b sums its sources in source order into row b, and the rows
	// are added in block order.
	blocks := min(betweennessBlocks, len(sources))
	rows := make([]float64, blocks*n)
	// A nil cancel never fires, so For cannot fail.
	_ = par.For(blocks, parallelism, nil, func() func(int) {
		st := newBrandesState(n)
		return func(b int) {
			row := rows[b*n : (b+1)*n]
			for _, s := range sources[b*len(sources)/blocks : (b+1)*len(sources)/blocks] {
				st.accumulate(g, s, row)
			}
		}
	})
	scores := make([]float64, n)
	for b := range blocks {
		for v, x := range rows[b*n : (b+1)*n] {
			scores[v] += x
		}
	}

	if len(sources) < n && len(sources) > 0 {
		scale := float64(n) / float64(len(sources))
		for v := range scores {
			scores[v] *= scale
		}
	}
	return scores
}

// brandesState is reusable per-source working memory.
type brandesState struct {
	dist  []int32
	sigma []float64 // shortest-path counts
	delta []float64 // dependency accumulator
	stack []graph.NodeID
	queue []graph.NodeID
	preds [][]graph.NodeID
}

func newBrandesState(n int) *brandesState {
	return &brandesState{
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		preds: make([][]graph.NodeID, n),
	}
}

// accumulate adds source s's dependency contributions into out.
func (st *brandesState) accumulate(g *graph.Graph, s graph.NodeID, out []float64) {
	n := g.N()
	for i := 0; i < n; i++ {
		st.dist[i] = -1
		st.sigma[i] = 0
		st.delta[i] = 0
		st.preds[i] = st.preds[i][:0]
	}
	st.stack = st.stack[:0]
	st.queue = st.queue[:0]

	st.dist[s] = 0
	st.sigma[s] = 1
	st.queue = append(st.queue, s)
	for head := 0; head < len(st.queue); head++ {
		v := st.queue[head]
		st.stack = append(st.stack, v)
		for _, w := range g.OutNeighbors(v) {
			if st.dist[w] < 0 {
				st.dist[w] = st.dist[v] + 1
				st.queue = append(st.queue, w)
			}
			if st.dist[w] == st.dist[v]+1 {
				st.sigma[w] += st.sigma[v]
				st.preds[w] = append(st.preds[w], v)
			}
		}
	}
	for i := len(st.stack) - 1; i >= 0; i-- {
		w := st.stack[i]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] / st.sigma[w] * (1 + st.delta[w])
		}
		if w != s {
			out[w] += st.delta[w]
		}
	}
}

// TopBetweenness returns the budget highest-betweenness nodes (exact
// Brandes over all sources).
func TopBetweenness(g *graph.Graph, budget int) []graph.NodeID {
	scores := Betweenness(g, 0, 0, 0)
	return topBy(g, budget, func(v graph.NodeID) float64 { return scores[v] })
}
