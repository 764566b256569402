// Package cascade implements influence-propagation dynamics: the
// Independent Cascade (IC) model used throughout the paper, the Linear
// Threshold (LT) model the paper notes its results extend to (§3.1), and
// the live-edge "world" representation on which fairtcim's influence
// estimator is built.
//
// # Live-edge worlds
//
// Under IC, flipping every edge's Bernoulli coin up front yields a
// deterministic subgraph (a "world"); a node activates at time t iff its
// hop distance from the seed set in that world is t (Kempe, Kleinberg &
// Tardos 2003). The time-critical utility fτ(S;Y) of Eq. 1 is then the
// expected number of Y-nodes within distance τ of S, estimated by
// averaging over R sampled worlds. On a fixed set of worlds the estimate
// is an exact monotone submodular set function of S, which is what makes
// greedy/CELF guarantees apply to the estimated objective. An IC world's
// coins are addressed by arc (ICArcLive), so a search that reads few arcs
// can decide them without sampling the world.
package cascade

import (
	"math"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// NoDeadline is the τ value meaning "no deadline" (τ = ∞ in the paper).
// Any activation time is within NoDeadline on graphs of sane size.
const NoDeadline int32 = math.MaxInt32 - 1

// NotActivated marks a node that never activates in an outcome, matching
// the paper's tv = −1 convention.
const NotActivated int32 = -1

// RunIC simulates one Independent Cascade outcome from seeds and returns
// the activation time of every node (NotActivated if never activated).
// Propagation stops once times exceed tau; pass NoDeadline for an
// unbounded run. The rng drives the per-edge Bernoulli trials.
func RunIC(g *graph.Graph, seeds []graph.NodeID, tau int32, rng *xrand.RNG) []int32 {
	times := make([]int32, g.N())
	for i := range times {
		times[i] = NotActivated
	}
	frontier := make([]graph.NodeID, 0, len(seeds))
	for _, s := range seeds {
		if times[s] == NotActivated {
			times[s] = 0
			frontier = append(frontier, s)
		}
	}
	var next []graph.NodeID
	for t := int32(1); len(frontier) > 0 && t <= tau; t++ {
		next = next[:0]
		for _, v := range frontier {
			targets, probs := g.OutEdges(v)
			for i, to := range targets {
				if times[to] == NotActivated && rng.Bernoulli(probs[i]) {
					times[to] = t
					next = append(next, to)
				}
			}
		}
		frontier, next = next, frontier
	}
	return times
}

// RunLT simulates one Linear Threshold outcome. Each node draws a uniform
// threshold; it activates in the round where the summed weight of its
// active in-neighbors reaches the threshold. Edge probabilities play the
// role of weights; if a node's incoming weights exceed 1 they are
// normalized, the standard LT validity condition.
func RunLT(g *graph.Graph, seeds []graph.NodeID, tau int32, rng *xrand.RNG) []int32 {
	n := g.N()
	times := make([]int32, n)
	thresholds := make([]float64, n)
	pressure := make([]float64, n) // accumulated active in-neighbor weight
	scale := ltScales(g)
	for i := range times {
		times[i] = NotActivated
		thresholds[i] = rng.Float64()
	}
	frontier := make([]graph.NodeID, 0, len(seeds))
	for _, s := range seeds {
		if times[s] == NotActivated {
			times[s] = 0
			frontier = append(frontier, s)
		}
	}
	var next []graph.NodeID
	for t := int32(1); len(frontier) > 0 && t <= tau; t++ {
		next = next[:0]
		for _, v := range frontier {
			targets, probs := g.OutEdges(v)
			for i, w := range targets {
				if times[w] != NotActivated {
					continue
				}
				pressure[w] += probs[i] * scale[w]
				if pressure[w] >= thresholds[w] {
					times[w] = t
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	return times
}

// ltScales returns the per-node factor that normalizes incoming LT weights
// to sum to at most 1.
func ltScales(g *graph.Graph) []float64 {
	scale := make([]float64, g.N())
	for v := 0; v < g.N(); v++ {
		sum := 0.0
		_, probs := g.InEdges(graph.NodeID(v))
		for _, p := range probs {
			sum += p
		}
		if sum > 1 {
			scale[v] = 1 / sum
		} else {
			scale[v] = 1
		}
	}
	return scale
}

// CountWithinDeadline counts, per group, the nodes of an outcome activated
// at a time in [0, tau]. It is the inner sum of Eq. 1 for Y = each group.
func CountWithinDeadline(g *graph.Graph, times []int32, tau int32) []int {
	counts := make([]int, g.NumGroups())
	for v, t := range times {
		if t >= 0 && t <= tau {
			counts[g.Group(graph.NodeID(v))]++
		}
	}
	return counts
}
