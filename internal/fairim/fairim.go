// Package fairim implements the paper's four optimization problems on top
// of the influence evaluator and the submodular toolbox:
//
//	P1  TCIM-Budget      max fτ(S;V)           s.t. |S| ≤ B
//	P2  TCIM-Cover       min |S|               s.t. fτ(S;V)/|V| ≥ Q
//	P4  FairTCIM-Budget  max Σᵢ H(fτ(S;Vᵢ))    s.t. |S| ≤ B
//	P6  FairTCIM-Cover   min |S|               s.t. fτ(S;Vᵢ)/|Vᵢ| ≥ Q ∀i
//
// All four are solved with the greedy heuristic (§3.4): CELF lazy greedy
// for the budget problems (Theorem 1 guarantee) and lazy greedy submodular
// cover on the truncated constraint Σᵢ min(fτ(S;Vᵢ)/|Vᵢ|, Q) ≥ kQ for the
// cover problems (Theorem 2 guarantee).
//
// Reported utilities are re-estimated on fresh Monte-Carlo worlds, not the
// worlds the optimizer saw, to avoid optimizer's-curse bias — unless
// Config.ReportOnSample opts into the low-latency serving path, which
// reports from the optimization sample.
package fairim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"fairtcim/internal/cascade"
	"fairtcim/internal/concave"
	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
	"fairtcim/internal/submodular"
)

// Engine selects the influence-estimation engine the solvers optimize
// against. Both engines implement estimator.Estimator, so every solver
// runs unchanged under either.
type Engine int

// Supported estimation engines.
const (
	// EngineForwardMC is the paper's estimator: forward Monte Carlo over
	// live-edge worlds. Supports IC, LT, delayed and discounted diffusion.
	EngineForwardMC Engine = iota
	// EngineRIS estimates via τ-bounded reverse-reachable set coverage
	// (TIM/IMM-style), which scales to much larger graphs. IC only; no
	// Delay/Discount.
	EngineRIS
)

// String returns the flag-friendly engine name.
func (e Engine) String() string {
	switch e {
	case EngineRIS:
		return "ris"
	default:
		return "forward-mc"
	}
}

// EngineByName parses an engine name: "forward-mc" (aliases "forward",
// "mc") or "ris".
func EngineByName(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "forward-mc", "forward", "mc", "":
		return EngineForwardMC, nil
	case "ris":
		return EngineRIS, nil
	default:
		return 0, fmt.Errorf("fairim: unknown engine %q (want forward-mc or ris)", name)
	}
}

// Config carries the parameters shared by all solvers. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	Tau         int32         // deadline τ; cascade.NoDeadline means τ = ∞
	Model       cascade.Model // diffusion model (IC default, LT extension)
	Engine      Engine        // estimation engine (forward Monte Carlo default)
	Samples     int           // Monte-Carlo worlds used during optimization
	EvalSamples int           // fresh worlds for the final report; 0 = Samples
	// RISPerGroup is the number of RR sets sampled per group when Engine
	// is EngineRIS; 0 derives a pool from Samples (20·Samples per group).
	RISPerGroup int
	Seed        int64            // seeds both world sets deterministically
	Parallelism int              // worker count for sampling and first-pass gains; 0 = GOMAXPROCS
	Candidates  []graph.NodeID   // permissible seeds; nil = every node
	H           concave.Function // concave wrapper for P4; nil = Log
	// GroupWeights, if non-nil, turns P4's objective into Σᵢ H(λᵢ·fτ(S;Vᵢ))
	// — the per-group weights the paper suggests for boosting
	// under-represented groups (§6.2.1). Must have one positive entry per
	// group. NormalizedGroupWeights gives the common per-capita choice.
	GroupWeights []float64
	// Delay, if non-nil, switches to delayed diffusion (e.g.
	// cascade.GeometricDelay{M} for the IC-M meeting model the paper's
	// deadline notion originates from). Requires Model == cascade.IC.
	Delay cascade.DelayDist
	// Discount, if in (0, 1), uses the time-discounted utility (the
	// paper's future-work model): a node activated at time t ≤ τ
	// contributes Discount^t instead of 1. Mutually exclusive with Delay.
	Discount    float64
	MaxSeeds    int  // safety bound for cover problems; 0 = |V|
	PlainGreedy bool // disable CELF (ablation); output is identical
	Trace       bool // record per-iteration group utilities
	// OnIteration, if non-nil, is called synchronously from the solver
	// goroutine after every greedy pick with that iteration's snapshot —
	// the streaming counterpart of Trace (the serving layer forwards these
	// as server-sent events). The snapshot's slices are not reused; the
	// callback may retain them.
	OnIteration func(IterationStat)
	// Cancel, if non-nil, is polled at the same between-picks seam as
	// OnIteration — once the channel is closed, the solve aborts after the
	// current pick and returns ErrCanceled — and inside the sampling loops:
	// IC/LT world sampling, RR-pool sampling, and the accuracy sizer's
	// doubling rounds all stop between samples, so a multi-second sampling
	// phase is interruptible too. Only delayed-world sampling and the
	// parallel first gain pass run to completion. The serving layer wires a
	// job's cancellation context here.
	Cancel <-chan struct{}
	// Warm, if non-nil, primes a budget solve (P1/P4 under CELF) with a
	// memoized greedy prefix: the prefix seeds are replayed (zero gain
	// evaluations, full trace/OnIteration parity) and the CELF heap resumes
	// from the snapshot for the remaining picks. The caller must guarantee
	// the warm state was captured on an equivalent instance — same graph,
	// estimator sample, objective, and candidate set — or the extension is
	// garbage; the serving layer keys its prefix cache on exactly that.
	// Ignored for cover problems and under PlainGreedy.
	Warm *WarmStart
	// CaptureWarm asks a budget solve to return its final CELF state in
	// Result.Warm so a later solve with a larger budget can extend it.
	CaptureWarm bool
	// Estimator, if non-nil, is used as the optimization estimator instead
	// of sampling a fresh one — the serving fast path: a warm estimator
	// built from a cached sample (e.g. a shared ris.Collection or world
	// set) is Reset and reused, skipping sampling entirely. Its graph must
	// match the solve's graph, and the instance must not be shared by
	// concurrent solves — build one estimator per request from the shared
	// (read-only) sample. Engine, Samples and RISPerGroup are ignored for
	// optimization when set; final-report estimation still uses Model,
	// EvalSamples and Seed.
	Estimator estimator.Estimator
	// ReportOnSample, if true, reports final utilities from the
	// optimization sample instead of fresh Monte-Carlo worlds — the
	// low-latency serving path. Solve results read slightly optimistic
	// (optimizer's curse); Evaluate results are unbiased since the seed
	// set was not chosen on the sample.
	ReportOnSample bool
}

// ErrCanceled reports a solve aborted because Config.Cancel fired —
// between greedy picks or inside a sampling loop. The Result is discarded;
// callers that want the partial seed set should consume OnIteration
// snapshots instead.
var ErrCanceled = errors.New("fairim: solve canceled")

// mapCanceled translates the context.Canceled that cancellable sampling
// loops return into the package's ErrCanceled, so callers see one
// cancellation error regardless of which phase the cancel landed in.
func mapCanceled(err error) error {
	if errors.Is(err, context.Canceled) {
		return ErrCanceled
	}
	return err
}

// WarmStart is a memoized greedy prefix: the seeds a budget solve picked,
// plus the CELF heap snapshot left after picking them. Because the heap
// after k picks does not depend on the eventual budget, replay + resume
// reproduces a larger cold solve bit-for-bit (see
// submodular.LazySnapshot). Treat as immutable once captured — one
// WarmStart may serve any number of extensions concurrently.
type WarmStart struct {
	Seeds    []graph.NodeID
	Snapshot *submodular.LazySnapshot
}

// DefaultConfig returns the paper's synthetic-experiment defaults (§6.1):
// τ = 20 and 200 Monte-Carlo samples.
func DefaultConfig(seed int64) Config {
	return Config{Tau: 20, Model: cascade.IC, Samples: 200, Seed: seed, H: concave.Log{}}
}

// IterationStat snapshots the state after one greedy pick, estimated on
// the optimization worlds (this is what Figures 6a/8a plot).
type IterationStat struct {
	Seed      graph.NodeID // the node picked in this iteration
	Objective float64      // optimizer's objective value after the pick
	Total     float64      // fτ(S;V) estimate
	NormGroup []float64    // fτ(S;Vᵢ)/|Vᵢ| estimates
}

// Result reports a solved instance. Utility fields come from fresh worlds.
type Result struct {
	Problem      string          // "P1", "P2", "P4", "P6"
	Seeds        []graph.NodeID  //
	Total        float64         // fτ(S;V)
	PerGroup     []float64       // fτ(S;Vᵢ)
	NormPerGroup []float64       // fτ(S;Vᵢ)/|Vᵢ|
	NormTotal    float64         // fτ(S;V)/|V|
	Disparity    float64         // Eq. 2
	Evaluations  int             // marginal-gain queries spent
	Trace        []IterationStat // non-nil iff cfg.Trace
	// Resolved sampling budgets the solve actually used — interesting when
	// they were derived from a ProblemSpec accuracy target rather than
	// configured explicitly.
	Samples     int // forward-MC worlds
	RISPerGroup int // RR sets per group (0 unless the RIS engine ran)
	// Warm is the solve's final CELF state, captured only when
	// Config.CaptureWarm was set on a budget problem solved via CELF; nil
	// otherwise (including runs that exhausted their candidates). It is not
	// part of the wire format — the serving layer keeps it in its prefix
	// cache.
	Warm *WarmStart `json:"-"`
}

func (c *Config) validate(g *graph.Graph) error {
	if g.N() == 0 {
		return fmt.Errorf("fairim: empty graph")
	}
	if c.Tau < 0 {
		return fmt.Errorf("fairim: negative deadline %d", c.Tau)
	}
	if c.Samples <= 0 {
		return fmt.Errorf("fairim: need positive Samples, got %d", c.Samples)
	}
	if c.EvalSamples < 0 {
		return fmt.Errorf("fairim: negative EvalSamples")
	}
	for _, v := range c.Candidates {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("fairim: candidate %d out of range", v)
		}
	}
	if c.GroupWeights != nil {
		if len(c.GroupWeights) != g.NumGroups() {
			return fmt.Errorf("fairim: %d group weights for %d groups", len(c.GroupWeights), g.NumGroups())
		}
		for i, w := range c.GroupWeights {
			if w <= 0 {
				return fmt.Errorf("fairim: group weight %d is %v, must be positive", i, w)
			}
		}
	}
	if c.Discount < 0 || c.Discount >= 1 {
		if c.Discount != 0 {
			return fmt.Errorf("fairim: discount %v outside (0,1)", c.Discount)
		}
	}
	if c.Delay != nil {
		if c.Model != cascade.IC {
			return fmt.Errorf("fairim: delayed diffusion requires the IC model")
		}
		if c.Discount > 0 {
			return fmt.Errorf("fairim: Delay and Discount cannot be combined")
		}
	}
	if c.RISPerGroup < 0 {
		return fmt.Errorf("fairim: negative RISPerGroup")
	}
	if c.Estimator != nil && c.Estimator.Graph() != g {
		return fmt.Errorf("fairim: injected estimator built for a different graph")
	}
	if c.Warm != nil {
		if c.Warm.Snapshot == nil {
			return fmt.Errorf("fairim: warm start without a heap snapshot")
		}
		for _, v := range c.Warm.Seeds {
			if v < 0 || int(v) >= g.N() {
				return fmt.Errorf("fairim: warm-start seed %d out of range", v)
			}
		}
	}
	if c.Engine == EngineRIS {
		if c.Model != cascade.IC {
			return fmt.Errorf("fairim: the RIS engine supports only the IC model")
		}
		if c.Delay != nil || c.Discount > 0 {
			return fmt.Errorf("fairim: the RIS engine does not support Delay or Discount")
		}
	}
	return nil
}

// NormalizedGroupWeights returns λᵢ = |V| / (k·|Vᵢ|): weights that make the
// P4 objective compare groups by per-capita influence instead of raw
// counts — λᵢ·fᵢ equals |V|/k times the group's influenced fraction, the
// same scale for every group. Useful when group sizes are very uneven and
// the smallest group would otherwise dominate the concave objective.
func NormalizedGroupWeights(g *graph.Graph) []float64 {
	k := g.NumGroups()
	w := make([]float64, k)
	for i := range w {
		w[i] = float64(g.N()) / (float64(k) * float64(g.GroupSize(i)))
	}
	return w
}

func (c *Config) candidates(g *graph.Graph) []graph.NodeID {
	if c.Candidates != nil {
		return c.Candidates
	}
	return g.Nodes()
}

func (c *Config) h() concave.Function {
	if c.H == nil {
		return concave.Log{}
	}
	return c.H
}

func (c *Config) evalSamples() int {
	if c.EvalSamples > 0 {
		return c.EvalSamples
	}
	return c.Samples
}

func (c *Config) maxSeeds(g *graph.Graph) int {
	if c.MaxSeeds > 0 {
		return c.MaxSeeds
	}
	return g.N()
}

// risPerGroup resolves the per-group RR pool size.
func (c *Config) risPerGroup() int {
	if c.RISPerGroup > 0 {
		return c.RISPerGroup
	}
	return 20 * c.Samples
}

// newEstimator returns the injected warm estimator if one is configured,
// else samples the optimization sample (live-edge worlds or RR pools, per
// c.Engine) and wraps it in the matching estimator.
func (c *Config) newEstimator(g *graph.Graph) (estimator.Estimator, error) {
	if c.Estimator != nil {
		c.Estimator.Reset()
		return c.Estimator, nil
	}
	if c.Engine == EngineRIS {
		perGroup := make([]int, g.NumGroups())
		for i := range perGroup {
			perGroup[i] = c.risPerGroup()
		}
		col, err := ris.SampleCancel(g, c.Tau, perGroup, c.Seed, c.Parallelism, c.Cancel)
		if err != nil {
			return nil, mapCanceled(err)
		}
		return ris.NewEstimator(col), nil
	}
	if c.Delay != nil {
		worlds := cascade.SampleDelayedWorlds(g, c.Delay, c.Samples, c.Seed, c.Parallelism)
		return influence.NewDelayedEvaluator(g, worlds, c.Tau)
	}
	worlds, err := cascade.SampleWorldsCancel(g, c.Model, c.Samples, c.Seed, c.Parallelism, c.Cancel)
	if err != nil {
		return nil, mapCanceled(err)
	}
	if c.Discount > 0 {
		return influence.NewDiscountedEvaluator(g, worlds, c.Tau, c.Discount)
	}
	return influence.NewEvaluator(g, worlds, c.Tau)
}

// estimate evaluates seeds on fresh worlds under the configured model.
func (c *Config) estimate(g *graph.Graph, seeds []graph.NodeID) ([]float64, error) {
	switch {
	case c.Delay != nil:
		return influence.EstimateDelayed(g, seeds, c.Tau, c.Delay, c.evalSamples(), c.Seed+1)
	case c.Discount > 0:
		return influence.EstimateDiscounted(g, seeds, c.Tau, c.Discount, c.Model, c.evalSamples(), c.Seed+1)
	default:
		return influence.Estimate(g, seeds, c.Tau, c.Model, c.evalSamples(), c.Seed+1)
	}
}

// coverSlack absorbs floating-point noise in Monte-Carlo-estimated cover
// targets.
const coverSlack = 1e-9

// maximize dispatches to plain or lazy greedy with a parallel first pass.
// Under CELF it honors Config.Warm (replay the memoized prefix, resume the
// heap) and Config.CaptureWarm (return the final CELF state); both
// produce/extend exactly what a cold run at the same budget would pick.
func maximize(obj *objective, cfg Config, g *graph.Graph, budget int) (submodular.Result, *WarmStart, error) {
	cands := cfg.candidates(g)
	if cfg.PlainGreedy {
		res, err := submodular.GreedyMax(obj, cands, budget)
		return res, nil, err
	}
	if w := cfg.Warm; w != nil && w.Snapshot != nil && len(w.Seeds) > 0 {
		// Replay through obj.Add rather than splicing results: the trace,
		// OnIteration stream, Values, and cancellation seam all behave as
		// in a cold run — only the Gain evaluations are saved.
		var res submodular.Result
		replay := w.Seeds
		if len(replay) > budget {
			replay = replay[:budget]
		}
		for _, v := range replay {
			obj.Add(v)
			res.Seeds = append(res.Seeds, v)
			res.Values = append(res.Values, obj.Value())
			if err := obj.Stopped(); err != nil {
				return res, nil, err
			}
		}
		if len(res.Seeds) >= budget {
			// The memoized prefix already covers this budget; nothing to
			// extend, and the shorter run leaves no capturable heap state.
			return res, nil, nil
		}
		ext, snap, err := submodular.LazyGreedyMaxResume(obj, w.Snapshot, budget-len(res.Seeds))
		res.Seeds = append(res.Seeds, ext.Seeds...)
		res.Values = append(res.Values, ext.Values...)
		res.Evaluations += ext.Evaluations
		if err != nil {
			return res, nil, err
		}
		return res, captureWarm(cfg, res, snap), nil
	}
	initial := obj.initialGains(cands, cfg.Parallelism)
	res, snap, err := submodular.LazyGreedyMaxCapture(obj, cands, budget, initial)
	res.Evaluations += len(cands) // the parallel first pass
	if err != nil {
		return res, nil, err
	}
	return res, captureWarm(cfg, res, snap), nil
}

// captureWarm packages the final CELF state when the caller asked for it.
func captureWarm(cfg Config, res submodular.Result, snap *submodular.LazySnapshot) *WarmStart {
	if !cfg.CaptureWarm || snap == nil || len(res.Seeds) == 0 {
		return nil
	}
	return &WarmStart{Seeds: append([]graph.NodeID(nil), res.Seeds...), Snapshot: snap}
}

func cover(obj *objective, cfg Config, g *graph.Graph, target float64) (submodular.Result, error) {
	cands := cfg.candidates(g)
	if cfg.PlainGreedy {
		// Plain cover: no laziness, used only in ablations/tests.
		return submodular.GreedyCover(obj, cands, target, cfg.maxSeeds(g))
	}
	initial := obj.initialGains(cands, cfg.Parallelism)
	res, err := submodular.GreedyCoverInit(obj, cands, target, cfg.maxSeeds(g), initial)
	res.Evaluations += len(cands)
	return res, err
}

func finishResult(problem string, g *graph.Graph, res submodular.Result, obj *objective, cfg Config) (*Result, error) {
	var perGroup []float64
	if cfg.ReportOnSample {
		// The solver's estimator already holds the final seed set.
		perGroup = obj.eval.GroupUtilities()
	} else {
		var err error
		perGroup, err = cfg.estimate(g, res.Seeds)
		if err != nil {
			return nil, err
		}
	}
	out := &Result{
		Problem:     problem,
		Seeds:       res.Seeds,
		PerGroup:    perGroup,
		Evaluations: res.Evaluations,
		Trace:       obj.trace,
	}
	// Report the sample the optimizer actually ran on; a RIS solve draws
	// no forward-MC worlds, so its Samples stays zero.
	if rs, ok := obj.eval.(*ris.Estimator); ok {
		out.RISPerGroup = rs.SampleSize()
	} else {
		out.Samples = obj.eval.SampleSize()
	}
	fillDerived(out, g)
	return out, nil
}

func fillDerived(r *Result, g *graph.Graph) {
	r.NormPerGroup = make([]float64, len(r.PerGroup))
	for i, u := range r.PerGroup {
		r.Total += u
		r.NormPerGroup[i] = u / float64(g.GroupSize(i))
	}
	r.NormTotal = r.Total / float64(g.N())
	r.Disparity = influence.Disparity(r.NormPerGroup)
}

// TheoremOneBound returns the Theorem 1 lower bound (1 − 1/e)·H(optTotal)
// on the total influence of greedy FairTCIM-Budget, given the (estimated)
// optimal P1 total influence.
func TheoremOneBound(h concave.Function, optTotal float64) float64 {
	return (1 - 1/math.E) * h.Eval(optTotal)
}

// TheoremTwoBound returns the Theorem 2 upper bound ln(1+n)·Σᵢ|Sᵢ*| on the
// FairTCIM-Cover greedy seed-set size, given per-group optimal cover sizes.
func TheoremTwoBound(n int, perGroupOptSizes []int) float64 {
	sum := 0
	for _, s := range perGroupOptSizes {
		sum += s
	}
	return math.Log(1+float64(n)) * float64(sum)
}
