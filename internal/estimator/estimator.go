// Package estimator defines the contract between influence-estimation
// engines and everything that consumes them — the solvers (fairim), the
// serving layer and the benchmarks. Two engines implement it today:
//
//   - forward Monte Carlo over live-edge worlds (influence.Evaluator and
//     its delayed/discounted variants), the paper's estimator; and
//   - reverse influence sampling (ris.Estimator), the scalability
//     extension that turns group utilities into RR-set coverage.
//
// Both expose the same incremental shape: grow a seed set one node at a
// time, query per-group marginal gains without committing, and read the
// current per-group utilities. On a fixed sample (worlds or RR pools) the
// induced set function is exactly monotone submodular for either engine,
// so greedy/CELF machinery is engine-agnostic. New diffusion models,
// sharded or batched estimators plug in behind this interface without
// touching any solver.
//
// Concurrency: an Estimator instance is single-goroutine (except
// InitialGains), but the sample it is built from — a []*cascade.World set
// or a ris.Collection — is immutable once sampled and may be shared. To
// serve concurrent queries against one sample, build one estimator per
// goroutine over the shared sample; that is how the serving layer
// (internal/server) amortizes sampling across requests.
package estimator

import "fairtcim/internal/graph"

// Estimator estimates the per-group time-critical influence fτ(S;Vᵢ) of a
// growing seed set S. Implementations are deterministic for a fixed
// sample; methods are not safe for concurrent use except InitialGains.
type Estimator interface {
	// Graph returns the graph the estimates refer to.
	Graph() *graph.Graph

	// GainPerGroup returns the estimated per-group utility increase from
	// adding v to the current seed set, without committing. The returned
	// slice may be reused across calls; copy to keep.
	GainPerGroup(v graph.NodeID) []float64

	// Gain returns the estimated total-utility increase from adding v.
	Gain(v graph.NodeID) float64

	// Add commits v to the seed set.
	Add(v graph.NodeID)

	// Seeds returns the current seed set (shared; do not modify).
	Seeds() []graph.NodeID

	// GroupUtilities returns the current fτ(S;Vᵢ) estimates.
	GroupUtilities() []float64

	// NormGroupUtilities returns fτ(S;Vᵢ)/|Vᵢ|.
	NormGroupUtilities() []float64

	// TotalUtility returns the current fτ(S;V) estimate.
	TotalUtility() float64

	// InitialGains evaluates GainPerGroup for every candidate against the
	// current seed set, in parallel, returning one copied slice per
	// candidate in candidate order. parallelism <= 0 means GOMAXPROCS.
	InitialGains(candidates []graph.NodeID, parallelism int) [][]float64

	// SampleSize reports the size of the underlying optimization sample:
	// live-edge worlds for forward Monte Carlo, RR sets per group (the
	// minimum across groups) for RIS. Consumers use it to report the
	// resolved sample budget when it was derived from an accuracy target
	// rather than configured explicitly.
	SampleSize() int

	// Reset clears the seed set, returning the estimator to its initial
	// state on the same sample.
	Reset()
}
