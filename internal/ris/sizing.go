package ris

import (
	"fmt"
	"math"

	"fairtcim/internal/graph"
	"fairtcim/internal/submodular"
)

// Accuracy-driven pool sizing (IMM/OPIM-style, adapted to per-group
// deadline-bounded pools).
//
// The quantity each pool estimates is a coverage probability: the
// normalized group utility fτ(S;Vᵢ)/|Vᵢ| equals the fraction of group i's
// RR sets that S intersects. A multiplicative Chernoff bound says θ RR
// sets estimate a coverage probability p within relative error ε with
// failure probability at most δ' once
//
//	θ ≥ (2 + 2ε/3) · ln(2/δ') / (ε² · p).
//
// Union-bounding δ' over the ≤ n^k seed sets a size-k greedy run can
// compare, the k groups, and the doubling rounds gives the stopping rule
// below. Because the achievable coverage p is unknown up front, the sizer
// follows IMM's geometric-doubling scheme: sample a pool, lower-bound p by
// the coverage a greedy size-k solution reaches on that pool, compute the
// θ the rule demands for that bound, and double (at least) until the
// current pool already satisfies its own requirement.

const (
	// sizingStartPool is the pilot pool size the doubling starts from.
	sizingStartPool = 256
	// sizingMaxPool caps the per-group pool; a target whose rule demands
	// more is rejected with an error (matching the forward-MC
	// HoeffdingWorlds cap) rather than silently served with a pool that
	// does not satisfy the advertised (ε,δ) guarantee.
	sizingMaxPool = 1 << 20
	// sizingMaxRounds bounds the doubling loop; the δ budget is split
	// uniformly across rounds.
	sizingMaxRounds = 16
)

// RequiredPoolSize returns the per-group RR-pool size the (ε,δ) stopping
// rule demands, given a lower bound lb on the normalized coverage a size-k
// solution achieves in the group (lb in (0,1]). n is the number of nodes,
// groups the number of groups. The result is clamped to sizingMaxPool.
func RequiredPoolSize(eps, delta float64, k, n, groups int, lb float64) int {
	if lb <= 0 {
		return sizingMaxPool
	}
	logUnion := float64(k)*math.Log(float64(n)) +
		math.Log(2*float64(groups)*float64(sizingMaxRounds)/delta)
	req := (2 + 2*eps/3) * logUnion / (eps * eps * lb)
	if req > float64(sizingMaxPool) {
		return sizingMaxPool
	}
	if req < 1 {
		return 1
	}
	return int(math.Ceil(req))
}

// SampleForAccuracy draws per-group RR pools sized by the geometric-
// doubling stopping rule so that, with probability ≥ 1−δ, every normalized
// group utility a size-≤k greedy run compares is within relative error ε.
// k is the target seed-set size (the budget for P1/P4; callers solving
// cover problems pass their best prior on the cover size). A target whose
// demanded pool exceeds the sizing cap is an error. The result is
// deterministic for fixed arguments; parallelism <= 0 means GOMAXPROCS.
func SampleForAccuracy(g *graph.Graph, tau int32, k int, eps, delta float64, seed int64, parallelism int) (*Collection, error) {
	return SampleForAccuracyCancel(g, tau, k, eps, delta, seed, parallelism, nil)
}

// SampleForAccuracyCancel is SampleForAccuracy with cooperative
// cancellation threaded into every doubling round's sampling pass: once
// cancel is closed the in-flight round stops between RR sets and the call
// returns context.Canceled. A nil cancel never fires.
func SampleForAccuracyCancel(g *graph.Graph, tau int32, k int, eps, delta float64, seed int64, parallelism int, cancel <-chan struct{}) (*Collection, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("ris: epsilon %v outside (0,1)", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("ris: delta %v outside (0,1)", delta)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ris: sizing seed count k must be positive, got %d", k)
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("ris: empty graph")
	}
	n := g.N()
	groups := g.NumGroups()
	if k > n {
		k = n
	}

	theta := sizingStartPool
	for round := 0; ; round++ {
		perGroup := make([]int, groups)
		for i := range perGroup {
			perGroup[i] = theta
		}
		// Each round resamples with a shifted seed so pools across rounds
		// are independent, as the per-round δ budget assumes.
		col, err := SampleCancel(g, tau, perGroup, seed+int64(round), parallelism, cancel)
		if err != nil {
			return nil, err
		}

		required, err := requiredForPool(col, k, eps, delta)
		if err != nil {
			return nil, err
		}
		if theta >= required {
			return col, nil
		}
		if required >= sizingMaxPool {
			return nil, fmt.Errorf("ris: accuracy target (ε=%v, δ=%v) demands %d RR sets per group (cap %d); relax the target or set explicit budgets", eps, delta, required, sizingMaxPool)
		}
		if round >= sizingMaxRounds-1 {
			return nil, fmt.Errorf("ris: accuracy sizing did not converge in %d rounds (pool %d, required %d); relax the target or set explicit budgets", sizingMaxRounds, theta, required)
		}
		theta = 2 * theta
		if required > theta {
			theta = required
		}
		if theta > sizingMaxPool {
			theta = sizingMaxPool
		}
	}
}

// coverage adapts an Estimator to submodular.Objective as the P1 (total
// coverage) objective; Gain and Add are the Estimator's own. The sizer
// cannot call fairim.Solve, which imports this package.
type coverage struct{ *Estimator }

func (c coverage) Value() float64 { return c.TotalUtility() }

// requiredForPool runs a size-k greedy on col to lower-bound the coverage
// a size-k solution achieves per group, then evaluates the stopping rule
// for every group and returns the largest demanded pool size.
func requiredForPool(col *Collection, k int, eps, delta float64) (int, error) {
	g := col.Graph()
	est := NewEstimator(col)
	if _, err := submodular.LazyGreedyMax(coverage{est}, g.Nodes(), k); err != nil {
		return 0, err
	}
	required := 0
	for i, frac := range est.NormGroupUtilities() {
		// Floor the lower bound at one node's worth of coverage: any
		// group member seeded directly covers ≥ 1/|Vᵢ| of its group.
		lb := frac
		if floor := 1 / float64(g.GroupSize(i)); lb < floor {
			lb = floor
		}
		if req := RequiredPoolSize(eps, delta, k, g.N(), g.NumGroups(), lb); req > required {
			required = req
		}
	}
	return required, nil
}
