package fairim

import (
	"fmt"
	"math"
	"strings"

	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
	"fairtcim/internal/ris"
	"fairtcim/internal/submodular"
)

// Problem identifies one of the paper's four optimization problems. The
// zero value is invalid so an unset ProblemSpec fails loudly instead of
// silently solving P1.
type Problem int

// The paper's problem kinds.
const (
	// P1 is TCIM-Budget: max fτ(S;V) s.t. |S| ≤ B.
	P1 Problem = iota + 1
	// P2 is TCIM-Cover: min |S| s.t. fτ(S;V)/|V| ≥ Q.
	P2
	// P4 is FairTCIM-Budget: max Σᵢ H(fτ(S;Vᵢ)) s.t. |S| ≤ B.
	P4
	// P6 is FairTCIM-Cover: min |S| s.t. fτ(S;Vᵢ)/|Vᵢ| ≥ Q for every group.
	P6
)

// String returns the paper's name for the problem ("P1", "P2", "P4", "P6").
func (p Problem) String() string {
	switch p {
	case P1:
		return "P1"
	case P2:
		return "P2"
	case P4:
		return "P4"
	case P6:
		return "P6"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// IsBudget reports whether the problem is constrained by a seed budget
// (P1/P4) rather than a coverage quota (P2/P6).
func (p Problem) IsBudget() bool { return p == P1 || p == P4 }

// ProblemByName parses a problem name: "p1", "p2", "p4" or "p6" (any
// case).
func ProblemByName(name string) (Problem, error) {
	switch strings.ToLower(name) {
	case "p1":
		return P1, nil
	case "p2":
		return P2, nil
	case "p4":
		return P4, nil
	case "p6":
		return P6, nil
	default:
		return 0, fmt.Errorf("fairim: unknown problem %q (want p1, p2, p4 or p6)", name)
	}
}

// Accuracy is an (ε,δ) estimation target: with probability at least 1−δ,
// every normalized group utility the solver compares is within (relative,
// for RIS; additive, for forward MC) error ε.
type Accuracy struct {
	Epsilon float64 // estimation error, in (0,1)
	Delta   float64 // failure probability, in (0,1)
}

func (a Accuracy) validate() error {
	if a.Epsilon <= 0 || a.Epsilon >= 1 {
		return fmt.Errorf("fairim: accuracy epsilon %v outside (0,1)", a.Epsilon)
	}
	if a.Delta <= 0 || a.Delta >= 1 {
		return fmt.Errorf("fairim: accuracy delta %v outside (0,1)", a.Delta)
	}
	return nil
}

// Sampling is the one home of the optimization sample's size: either
// explicit counts (Samples for forward Monte Carlo, RISPerGroup for the
// RIS engine) or an Accuracy target the solver resolves into counts itself
// — an IMM-style geometric-doubling pool sizer for RIS
// (ris.SampleForAccuracy), a Hoeffding-based world count for forward MC
// (HoeffdingWorlds). Setting both explicit counts and an Accuracy target
// is an error. An unset count takes the default ProblemSpec.Counts
// documents.
type Sampling struct {
	Samples     int       // explicit forward-MC world count
	RISPerGroup int       // explicit RR sets per group (RIS engine)
	Accuracy    *Accuracy // accuracy target; nil = explicit budgets
}

// DefaultSamples is the optimization sample size used when neither an
// explicit budget nor an accuracy target is given (the paper's §6.1
// synthetic-experiment default).
const DefaultSamples = 200

// ProblemSpec is the one request type every solve goes through: the
// problem kind with its constraint value, the sampling budget (explicit or
// accuracy-targeted), and the shared solver options embedded as Config.
// The serving layer (internal/server) decodes HTTP requests directly into
// a ProblemSpec; the CLIs and experiment harness construct one from flags.
type ProblemSpec struct {
	Problem Problem // which problem to solve (required)
	Budget  int     // seed budget B (P1/P4)
	Quota   float64 // coverage quota Q in (0,1] (P2/P6)

	// Sampling sizes the optimization sample; nothing else does.
	Sampling Sampling

	// Config carries the remaining solver options: deadline, diffusion
	// model, engine, seeds, objective options, parallelism, eval policy.
	Config
}

// Counts returns the forward-MC world count and the RR sets per group the
// spec's explicit Sampling counts resolve to: an unset world count is
// DefaultSamples, and an unset pool holds 20 RR sets per world. The solve,
// the batch planner's share key and the serving layer's request decoding
// all derive the counts here, so they cannot disagree.
func (s ProblemSpec) Counts() (samples, risPerGroup int) {
	samples, risPerGroup = DefaultSamples, s.Sampling.RISPerGroup
	if s.Sampling.Samples > 0 {
		samples = s.Sampling.Samples
	}
	if risPerGroup <= 0 {
		risPerGroup = 20 * samples
	}
	return samples, risPerGroup
}

// SizingSeeds returns the seed-set size the accuracy machinery unions
// over: the budget for P1/P4; for the cover problems, whose solution size
// is unknown up front, MaxSeeds when set, else ⌈√n⌉ as a prior.
func (s ProblemSpec) SizingSeeds(g *graph.Graph) int {
	if s.Problem.IsBudget() || s.Problem == 0 {
		if s.Budget > 0 {
			return s.Budget
		}
		return 1
	}
	if s.MaxSeeds > 0 {
		return s.MaxSeeds
	}
	return int(math.Ceil(math.Sqrt(float64(g.N()))))
}

// HoeffdingWorlds returns the forward-MC world count m such that, with
// probability ≥ 1−δ, every normalized group utility of every seed set a
// size-≤k greedy run can compare is within additive error ε of its mean:
// Hoeffding plus a union bound over the ≤ n^k candidate sets and the
// groups gives
//
//	m ≥ (k·ln n + ln(2·groups/δ)) / (2ε²).
//
// An error is returned when the demand exceeds the auto-sizing cap.
func HoeffdingWorlds(eps, delta float64, k, n, groups int) (int, error) {
	if err := (Accuracy{Epsilon: eps, Delta: delta}).validate(); err != nil {
		return 0, err
	}
	if k <= 0 || n <= 0 || groups <= 0 {
		return 0, fmt.Errorf("fairim: HoeffdingWorlds needs positive k, n and groups")
	}
	need := (float64(k)*math.Log(float64(n)) + math.Log(2*float64(groups)/delta)) / (2 * eps * eps)
	if need > estimator.MaxSamples {
		return 0, fmt.Errorf("fairim: accuracy target (ε=%v, δ=%v) demands %.0f worlds (cap %d); relax the target or set explicit budgets", eps, delta, need, estimator.MaxSamples)
	}
	if need < 1 {
		return 1, nil
	}
	return int(math.Ceil(need)), nil
}

// EvalWorlds returns the world count for estimating one fixed seed set
// within additive ε with probability 1−δ — Hoeffding with a union bound
// over the groups only, no union over candidate sets, so far smaller than
// a solve's HoeffdingWorlds. The serving layer uses it to size cached
// estimation samples. Like HoeffdingWorlds, a target beyond the
// auto-sizing cap is an error — never a silently degraded guarantee.
func EvalWorlds(a Accuracy, groups int) (int, error) {
	need := math.Log(2*float64(groups)/a.Delta) / (2 * a.Epsilon * a.Epsilon)
	if need > estimator.MaxSamples {
		return 0, fmt.Errorf("fairim: accuracy target (ε=%v, δ=%v) demands %.0f eval worlds (cap %d); relax the target or set explicit budgets", a.Epsilon, a.Delta, need, estimator.MaxSamples)
	}
	if need < 1 {
		return 1, nil
	}
	return int(math.Ceil(need)), nil
}

// resolveMode tells resolve what the run will do with its estimator,
// which decides how an accuracy target is turned into sample budgets.
type resolveMode int

const (
	// resolveSolve sizes the optimization sample for a greedy run: the
	// stopping rule unions over every candidate set the run can compare.
	resolveSolve resolveMode = iota
	// resolveEvalSample sizes an on-sample estimate of one fixed seed
	// set: forward MC needs only EvalWorlds (no candidate union); RIS
	// keeps the solve-sized pool so it stays shareable through the
	// serving cache.
	resolveEvalSample
	// resolveEvalFresh skips optimization-sample sizing entirely — the
	// estimate comes from fresh eval worlds, or the run is answered from a
	// memo, so building a pool here would be thrown away unused.
	resolveEvalFresh
)

// resolve validates the spec and returns the Config its run reports with,
// EvalSamples filled in, and the estimator it optimizes on:
//   - none under resolveEvalFresh;
//   - the injected Config.Estimator, Reset, which carries its own sample
//     (an accuracy target then only sizes the fresh-world report);
//   - one over a sample the accuracy target sizes for k seeds;
//   - else one over the explicit counts Counts derives.
//
// It is the only code in the package that draws an optimization sample.
func (s ProblemSpec) resolve(g *graph.Graph, k int, mode resolveMode) (Config, estimator.Estimator, error) {
	cfg := s.Config
	if s.Sampling.Samples < 0 {
		return cfg, nil, fmt.Errorf("fairim: negative Sampling.Samples %d", s.Sampling.Samples)
	}
	if s.Sampling.RISPerGroup < 0 {
		return cfg, nil, fmt.Errorf("fairim: negative Sampling.RISPerGroup %d", s.Sampling.RISPerGroup)
	}
	acc := s.Sampling.Accuracy
	if acc != nil {
		if s.Sampling.Samples > 0 || s.Sampling.RISPerGroup > 0 {
			return cfg, nil, fmt.Errorf("fairim: Sampling sets both explicit budgets and an accuracy target; choose one")
		}
		if err := acc.validate(); err != nil {
			return cfg, nil, err
		}
	}
	if err := cfg.validate(g); err != nil {
		return cfg, nil, err
	}
	samples, perGroup := s.Counts()
	if cfg.EvalSamples == 0 {
		cfg.EvalSamples = samples
		if acc != nil {
			var err error
			if cfg.EvalSamples, err = EvalWorlds(*acc, g.NumGroups()); err != nil {
				return cfg, nil, err
			}
		}
	}
	if mode == resolveEvalFresh {
		return cfg, nil, nil
	}
	if cfg.Estimator != nil {
		cfg.Estimator.Reset()
		return cfg, cfg.Estimator, nil
	}
	if cfg.Engine == EngineRIS {
		var col *ris.Collection
		var err error
		if acc != nil {
			col, err = ris.SampleForAccuracyCancel(g, cfg.Tau, max(k, 1), acc.Epsilon, acc.Delta, cfg.Seed, cfg.Parallelism, cfg.Cancel)
		} else {
			pools := make([]int, g.NumGroups())
			for i := range pools {
				pools[i] = perGroup
			}
			col, err = ris.SampleCancel(g, cfg.Tau, pools, cfg.Seed, cfg.Parallelism, cfg.Cancel)
		}
		if err != nil {
			return cfg, nil, mapCanceled(err)
		}
		return cfg, ris.NewEstimator(col), nil
	}
	if acc != nil {
		var err error
		if mode == resolveEvalSample {
			// One fixed seed set: no candidate union, the plain per-set
			// Hoeffding count suffices.
			samples, err = EvalWorlds(*acc, g.NumGroups())
		} else {
			samples, err = HoeffdingWorlds(acc.Epsilon, acc.Delta, max(k, 1), g.N(), g.NumGroups())
		}
		if err != nil {
			return cfg, nil, err
		}
	}
	e, err := cfg.forwardMC(g, samples, cfg.Seed, cfg.Cancel)
	if err != nil {
		return cfg, nil, err // an untyped nil, not a nil *influence.Evaluator
	}
	return cfg, e, nil
}

// validateConstraint checks the problem kind and its constraint value.
func (s ProblemSpec) validateConstraint() error {
	switch s.Problem {
	case P1, P4:
		if s.Budget <= 0 {
			return fmt.Errorf("fairim: budget must be positive, got %d", s.Budget)
		}
	case P2, P6:
		if s.Quota <= 0 || s.Quota > 1 {
			return fmt.Errorf("fairim: quota %v outside (0,1]", s.Quota)
		}
	default:
		return fmt.Errorf("fairim: ProblemSpec.Problem must be P1, P2, P4 or P6, got %v", s.Problem)
	}
	return nil
}

// valueFn is the one P1/P2/P4/P6 value function, shared by Solve,
// SolveBatch and SolveExact; P4 carries the optional group weights.
func (s ProblemSpec) valueFn() valueFn {
	switch s.Problem {
	case P1:
		return totalValue{}
	case P4:
		return concaveValue{h: s.h(), weights: s.GroupWeights}
	case P2:
		return totalQuotaValue{quota: s.Quota}
	default: // P6
		return groupQuotaValue{quota: s.Quota}
	}
}

// objectiveFor builds the objective a greedy run drives. eval is nil for
// a spec answered from its memo (see fromMemo).
func (s ProblemSpec) objectiveFor(g *graph.Graph, eval estimator.Estimator, cfg Config) *objective {
	rows := 0
	if s.Problem.IsBudget() && cfg.Warm == nil {
		// A cold budget run commits at most one row per pick; a warm one
		// starts from the memo's rows instead.
		rows = min(s.Budget, g.N())
	}
	return newObjective(g, eval, s.valueFn(), cfg, rows)
}

// fromMemo reports whether the spec's warm prefix answers its whole
// budget, so that the run replays the memo and evaluates no gain.
func (s ProblemSpec) fromMemo() bool {
	return s.Problem.IsBudget() && !s.PlainGreedy && s.Warm != nil && len(s.Warm.Seeds) >= s.Budget
}

// prepare resolves the spec and builds the objective its greedy run
// drives. A spec answered from its memo sizes no optimization sample and
// builds no estimator (an injected one is left untouched); fresh-world
// reports are still sized. Every other spec samples or reuses its
// estimator.
func (s ProblemSpec) prepare(g *graph.Graph) (Config, *objective, error) {
	mode := resolveSolve
	if s.fromMemo() {
		mode = resolveEvalFresh
	}
	cfg, eval, err := s.resolve(g, s.SizingSeeds(g), mode)
	if err != nil {
		return cfg, nil, err
	}
	return cfg, s.objectiveFor(g, eval, cfg), nil
}

// greedy is the greedy driver Solve and SolveBatch share: CELF (or the
// plain-greedy ablation) up to the budget for P1/P4, lazy greedy cover of
// the quota for P2/P6. The snapshot is a budget run's final CELF state;
// nil for covers and for runs that left none to extend.
func (s ProblemSpec) greedy(obj *objective, cfg Config, g *graph.Graph) (submodular.Result, *submodular.LazySnapshot, error) {
	var target float64
	switch s.Problem {
	case P1, P4:
		return maximize(obj, cfg, g, s.Budget)
	case P2:
		target = s.Quota - coverSlack
	default: // P6
		target = s.Quota*float64(g.NumGroups()) - coverSlack
	}
	res, err := cover(obj, cfg, g, target)
	return res, nil, err
}

// Solve runs the spec's problem on g: it resolves the sampling budget
// (deriving it from the accuracy target when one is set), builds or reuses
// the estimator — unless a memoized prefix answers the whole budget — and
// dispatches to the greedy machinery the problem kind demands. It is the
// sequential reference every SolveBatch outcome is pinned against.
func Solve(g *graph.Graph, spec ProblemSpec) (*Result, error) {
	if err := spec.validateConstraint(); err != nil {
		return nil, err
	}
	cfg, obj, err := spec.prepare(g)
	if err != nil {
		return nil, err
	}
	res, snap, err := spec.greedy(obj, cfg, g)
	if err != nil {
		return nil, err
	}
	out, err := finishResult(spec.Problem.String(), g, res, obj, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CaptureWarm {
		out.Warm = captureWarm(res, snap, obj)
	}
	return out, nil
}

// Evaluate estimates utilities and disparity of an arbitrary seed set
// under the spec's sampling policy; spec.Problem and the constraint fields
// are ignored. With ReportOnSample the estimate comes from the
// optimization sample (the injected Estimator if set); otherwise from
// fresh worlds drawn with Seed+1, the same stream solver reports use, so
// solver results and external seed sets are comparable. An accuracy
// target sizes the sample for this one fixed seed set — for forward MC
// that is EvalWorlds (no union over candidates, so far fewer worlds than
// a solve needs); an on-sample RIS pool stays solve-sized so it can be
// shared with solves through the serving cache.
func Evaluate(g *graph.Graph, seeds []graph.NodeID, spec ProblemSpec) (*Result, error) {
	// Reject bad seeds before any (possibly accuracy-sized, so expensive)
	// sample is built.
	for _, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("fairim: seed %d out of range", v)
		}
	}
	mode := resolveEvalFresh
	if spec.ReportOnSample {
		mode = resolveEvalSample
	}
	cfg, eval, err := spec.resolve(g, len(seeds), mode)
	if err != nil {
		return nil, err
	}
	r := &Result{Problem: "eval", Seeds: append([]graph.NodeID(nil), seeds...)}
	if eval != nil {
		for _, v := range seeds {
			eval.Add(v)
		}
		r.PerGroup, _ = eval.AppendUtilities(nil, nil)
		r.Samples, r.RISPerGroup = sampleSizes(eval)
	} else {
		if r.PerGroup, err = cfg.estimate(g, seeds); err != nil {
			return nil, err
		}
		r.Samples = cfg.EvalSamples
	}
	fillDerived(r, g)
	return r, nil
}
