// Package estimator defines the contract between influence-estimation
// engines and everything that consumes them — the solvers (fairim), the
// serving layer and the benchmarks. Two engines implement it today:
//
//   - forward Monte Carlo over live-edge worlds (influence.Evaluator,
//     one type for the 0/1, delayed and discounted utilities), the
//     paper's estimator; and
//   - reverse influence sampling (ris.Estimator), the scalability
//     extension that turns group utilities into RR-set coverage.
//
// Both expose the same incremental shape, seven methods: grow a seed set
// one node at a time (Add, Reset), query per-group marginal gains without
// committing (GainPerGroup, InitialGains), and read the current per-group
// utilities (AppendUtilities), the sample size and the graph. Readers a
// consumer needs beyond those (a scalar gain, the seed list, totals) live
// on the concrete engines. On a fixed sample (worlds or RR pools) the
// induced set function is exactly monotone submodular for either engine,
// so greedy/CELF machinery is engine-agnostic. New diffusion models,
// sharded or batched estimators plug in behind this interface without
// touching any solver.
//
// The first CELF pass evaluates every candidate once, so InitialGains
// returns all of its gains in one flat, row-major buffer rather than one
// slice per candidate: a cold solve allocates a constant number of
// objects for it, not one per node. Engines that evaluate candidates in
// parallel split the rows with par.For.
//
// Concurrency: an Estimator instance is single-goroutine (except
// InitialGains), but the sample it is built from — a []*cascade.World set
// or a ris.Collection — is immutable once sampled and may be shared. To
// serve concurrent queries against one sample, build one estimator per
// goroutine over the shared sample; that is how the serving layer
// (internal/server) amortizes sampling across requests.
package estimator

import "fairtcim/internal/graph"

// MaxSamples caps every sample count an engine draws: forward-MC worlds,
// fresh report worlds and RR sets per group alike. An accuracy target that
// demands more is refused rather than sampled unboundedly, and the serving
// layer refuses an explicit count above it before building anything.
const MaxSamples = 1 << 20

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

	// Add commits v to the seed set.
	Add(v graph.NodeID)

	// AppendUtilities appends the current per-group utility estimates
	// fτ(S;Vᵢ) to utils and their normalized values fτ(S;Vᵢ)/|Vᵢ| to
	// norms, G entries each, and returns the extended slices. It allocates
	// only when a buffer lacks room, so a solver can record the utilities
	// after every pick into two flat buffers; AppendUtilities(nil, nil)
	// reads them once.
	AppendUtilities(utils, norms []float64) ([]float64, []float64)

	// InitialGains evaluates GainPerGroup for every candidate against the
	// current seed set and returns the gains in one flat, row-major buffer
	// of len(candidates)·G entries, G the group count: row i,
	// out[i·G:(i+1)·G], is GainPerGroup(candidates[i]). Engines may fill
	// rows in parallel; parallelism <= 0 means GOMAXPROCS.
	InitialGains(candidates []graph.NodeID, parallelism int) []float64

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
