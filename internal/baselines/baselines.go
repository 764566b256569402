// Package baselines implements the seed-selection heuristics the influence
// maximization literature compares against: top-degree, random, PageRank,
// and a group-proportional degree strategy (the diversity-seeding idea of
// Stoica & Chaintreau 2019 the paper discusses in §7.2). They share the
// signature: given a graph and budget, return a seed set.
//
// In the layering, baselines sits beside internal/fairim: both consume the
// graph substrate and feed the experiment harness and serving layer above.
// Nothing below depends on it.
package baselines

import (
	"fmt"
	"sort"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// TopDegree returns the budget highest out-degree nodes (ties broken by
// node id for determinism).
func TopDegree(g *graph.Graph, budget int) []graph.NodeID {
	return topBy(g, budget, func(v graph.NodeID) float64 { return float64(g.OutDegree(v)) })
}

// Random returns budget uniformly random distinct nodes.
func Random(g *graph.Graph, budget int, seed int64) []graph.NodeID {
	if budget > g.N() {
		budget = g.N()
	}
	rng := xrand.New(seed)
	idx := rng.Sample(g.N(), budget)
	out := make([]graph.NodeID, budget)
	for i, v := range idx {
		out[i] = graph.NodeID(v)
	}
	return out
}

// PageRankConfig tunes the power iteration.
type PageRankConfig struct {
	Damping   float64 // default 0.85
	Tol       float64 // L1 convergence tolerance, default 1e-9
	MaxIters  int     // default 100
	EdgeProbs bool    // weight transitions by activation probabilities
}

// PageRank computes PageRank scores via power iteration. Dangling mass is
// redistributed uniformly, the standard convention.
func PageRank(g *graph.Graph, cfg PageRankConfig) ([]float64, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("baselines: empty graph")
	}
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Damping < 0 || cfg.Damping >= 1 {
		return nil, fmt.Errorf("baselines: damping %v outside [0,1)", cfg.Damping)
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-9
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 100
	}
	n := g.N()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	// Per-node outgoing weight sums (uniform or probability weighted).
	outWeight := make([]float64, n)
	for v := 0; v < n; v++ {
		_, probs := g.OutEdges(graph.NodeID(v))
		if cfg.EdgeProbs {
			for _, p := range probs {
				outWeight[v] += p
			}
		} else {
			outWeight[v] = float64(len(probs))
		}
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outWeight[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-cfg.Damping)/float64(n) + cfg.Damping*dangling/float64(n)
		for v := range next {
			next[v] = base
		}
		for v := 0; v < n; v++ {
			if outWeight[v] == 0 {
				continue
			}
			share := cfg.Damping * rank[v] / outWeight[v]
			targets, probs := g.OutEdges(graph.NodeID(v))
			for i, to := range targets {
				if cfg.EdgeProbs {
					next[to] += share * probs[i]
				} else {
					next[to] += share
				}
			}
		}
		diff := 0.0
		for v := range rank {
			d := next[v] - rank[v]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		rank, next = next, rank
		if diff < cfg.Tol {
			break
		}
	}
	return rank, nil
}

// TopPageRank returns the budget highest-PageRank nodes.
func TopPageRank(g *graph.Graph, budget int, cfg PageRankConfig) ([]graph.NodeID, error) {
	scores, err := PageRank(g, cfg)
	if err != nil {
		return nil, err
	}
	return topBy(g, budget, func(v graph.NodeID) float64 { return scores[v] }), nil
}

// GroupProportionalDegree allocates the budget across groups proportionally
// to group sizes (largest-remainder rounding, every group gets at least one
// seed when budget >= k), then picks the top-degree nodes within each
// group. This is the diversity-seeding baseline.
func GroupProportionalDegree(g *graph.Graph, budget int) []graph.NodeID {
	k := g.NumGroups()
	if budget > g.N() {
		budget = g.N()
	}
	if budget <= 0 {
		return nil
	}
	alloc := make([]int, k)
	remainders := make([]float64, k)
	used := 0
	for i := 0; i < k; i++ {
		exact := float64(budget) * float64(g.GroupSize(i)) / float64(g.N())
		alloc[i] = int(exact)
		remainders[i] = exact - float64(alloc[i])
		used += alloc[i]
	}
	// Largest remainders get the leftover budget.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return remainders[order[a]] > remainders[order[b]] })
	for i := 0; used < budget; i = (i + 1) % k {
		alloc[order[i]]++
		used++
	}
	// Minimum one per group when affordable.
	if budget >= k {
		for i := 0; i < k; i++ {
			if alloc[i] == 0 {
				alloc[i] = 1
				// Take one back from the largest allocation.
				maxI := 0
				for j := 1; j < k; j++ {
					if alloc[j] > alloc[maxI] {
						maxI = j
					}
				}
				alloc[maxI]--
			}
		}
	}
	var out []graph.NodeID
	for i := 0; i < k; i++ {
		// GroupMembers is a shared view of the graph's group index; copy
		// before sorting by degree.
		members := append([]graph.NodeID(nil), g.GroupMembers(i)...)
		sort.SliceStable(members, func(a, b int) bool {
			da, db := g.OutDegree(members[a]), g.OutDegree(members[b])
			if da != db {
				return da > db
			}
			return members[a] < members[b]
		})
		take := alloc[i]
		if take > len(members) {
			take = len(members)
		}
		out = append(out, members[:take]...)
	}
	return out
}

// topBy returns the budget nodes maximizing score, ties by id.
func topBy(g *graph.Graph, budget int, score func(graph.NodeID) float64) []graph.NodeID {
	if budget > g.N() {
		budget = g.N()
	}
	if budget <= 0 {
		return nil
	}
	nodes := g.Nodes()
	sort.SliceStable(nodes, func(a, b int) bool {
		sa, sb := score(nodes[a]), score(nodes[b])
		if sa != sb {
			return sa > sb
		}
		return nodes[a] < nodes[b]
	})
	return append([]graph.NodeID(nil), nodes[:budget]...)
}
