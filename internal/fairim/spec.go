package fairim

import (
	"fmt"
	"math"
	"strings"

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

// Sampling selects the optimization sample budget: either explicit counts
// (Samples for forward Monte Carlo, RISPerGroup for the RIS engine) or an
// Accuracy target the solver resolves into counts itself — an IMM-style
// geometric-doubling pool sizer for RIS (ris.SampleForAccuracy), a
// Hoeffding-based world count for forward MC (HoeffdingWorlds). Setting
// both explicit counts and an Accuracy target is an error. The zero value
// falls back to the embedded Config's Samples/RISPerGroup fields, then to
// DefaultSamples.
type Sampling struct {
	Samples     int       // explicit forward-MC world count
	RISPerGroup int       // explicit RR sets per group (RIS engine)
	Accuracy    *Accuracy // accuracy target; nil = explicit budgets
}

// DefaultSamples is the optimization sample size used when neither an
// explicit budget nor an accuracy target is given (the paper's §6.1
// synthetic-experiment default).
const DefaultSamples = 200

// maxAutoSamples caps budgets derived from accuracy targets; demanding
// more is reported as an error rather than sampled unboundedly.
const maxAutoSamples = 1 << 20

// ProblemSpec is the one request type every solve goes through: the
// problem kind with its constraint value, the sampling budget (explicit or
// accuracy-targeted), and the shared solver options embedded as Config.
// The serving layer (internal/server) decodes HTTP requests directly into
// a ProblemSpec; the CLIs and experiment harness construct one from flags.
type ProblemSpec struct {
	Problem Problem // which problem to solve (required)
	Budget  int     // seed budget B (P1/P4)
	Quota   float64 // coverage quota Q in (0,1] (P2/P6)

	// Sampling sizes the optimization sample. Its explicit counts take
	// precedence over the embedded Config's Samples/RISPerGroup.
	Sampling Sampling

	// Config carries the remaining solver options: deadline, diffusion
	// model, engine, seeds, objective options, parallelism, eval policy.
	Config
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
	if need > maxAutoSamples {
		return 0, fmt.Errorf("fairim: accuracy target (ε=%v, δ=%v) demands %.0f worlds (cap %d); relax the target or set explicit budgets", eps, delta, need, maxAutoSamples)
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
	if need > maxAutoSamples {
		return 0, fmt.Errorf("fairim: accuracy target (ε=%v, δ=%v) demands %.0f eval worlds (cap %d); relax the target or set explicit budgets", a.Epsilon, a.Delta, need, maxAutoSamples)
	}
	if need < 1 {
		return 1, nil
	}
	return int(math.Ceil(need)), nil
}

// resolveMode tells resolve what the resulting Config will drive, which
// decides how an accuracy target is turned into sample budgets.
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
	// estimate comes from fresh eval worlds, so building a pool here
	// would be thrown away unused.
	resolveEvalFresh
)

// resolve turns the spec into a ready-to-run Config: explicit sampling
// budgets are merged over the embedded Config's, accuracy targets are
// resolved into concrete budgets (sampling RR pools via the stopping rule
// for RIS, which injects the sized sample as the estimator), and defaults
// fill anything still unset. k is the seed-set size the accuracy union
// bound covers. An injected Estimator always wins for optimization;
// accuracy then only sizes the fresh-world report.
func (s ProblemSpec) resolve(g *graph.Graph, k int, mode resolveMode) (Config, error) {
	cfg := s.Config
	if s.Sampling.Samples < 0 {
		return cfg, fmt.Errorf("fairim: negative Sampling.Samples %d", s.Sampling.Samples)
	}
	if s.Sampling.RISPerGroup < 0 {
		return cfg, fmt.Errorf("fairim: negative Sampling.RISPerGroup %d", s.Sampling.RISPerGroup)
	}
	acc := s.Sampling.Accuracy
	if acc != nil {
		if s.Sampling.Samples > 0 || s.Sampling.RISPerGroup > 0 {
			return cfg, fmt.Errorf("fairim: Sampling sets both explicit budgets and an accuracy target; choose one")
		}
		if err := acc.validate(); err != nil {
			return cfg, err
		}
	}
	if s.Sampling.Samples > 0 {
		cfg.Samples = s.Sampling.Samples
	}
	if s.Sampling.RISPerGroup > 0 {
		cfg.RISPerGroup = s.Sampling.RISPerGroup
	}
	if cfg.Samples == 0 {
		cfg.Samples = DefaultSamples
	}
	if err := cfg.validate(g); err != nil {
		return cfg, err
	}
	if acc == nil {
		return cfg, nil
	}

	if cfg.EvalSamples == 0 {
		var err error
		if cfg.EvalSamples, err = EvalWorlds(*acc, g.NumGroups()); err != nil {
			return cfg, err
		}
	}
	if cfg.Estimator != nil || mode == resolveEvalFresh {
		// A warm estimator carries its own sample, and a fresh-world
		// evaluation never touches the optimization sample — either way
		// there is nothing to size (and for RIS, a sized pool would be
		// an expensive build thrown away unused).
		return cfg, nil
	}
	if k < 1 {
		k = 1
	}
	if mode == resolveEvalSample && cfg.Engine != EngineRIS {
		// One fixed seed set: no candidate union, the plain per-set
		// Hoeffding count suffices.
		var err error
		if cfg.Samples, err = EvalWorlds(*acc, g.NumGroups()); err != nil {
			return cfg, err
		}
		return cfg, nil
	}
	if cfg.Engine == EngineRIS {
		col, err := ris.SampleForAccuracyCancel(g, cfg.Tau, k, acc.Epsilon, acc.Delta, cfg.Seed, cfg.Parallelism, cfg.Cancel)
		if err != nil {
			return cfg, mapCanceled(err)
		}
		cfg.Estimator = ris.NewEstimator(col)
		cfg.RISPerGroup = cfg.Estimator.SampleSize()
		return cfg, nil
	}
	m, err := HoeffdingWorlds(acc.Epsilon, acc.Delta, k, g.N(), g.NumGroups())
	if err != nil {
		return cfg, err
	}
	cfg.Samples = m
	return cfg, nil
}

// Solve runs the spec's problem on g: it resolves the sampling budget
// (deriving it from the accuracy target when one is set), builds or reuses
// the estimator, and dispatches to the greedy machinery the problem kind
// demands.
func Solve(g *graph.Graph, spec ProblemSpec) (*Result, error) {
	switch spec.Problem {
	case P1, P4:
		if spec.Budget <= 0 {
			return nil, fmt.Errorf("fairim: budget must be positive, got %d", spec.Budget)
		}
	case P2, P6:
		if spec.Quota <= 0 || spec.Quota > 1 {
			return nil, fmt.Errorf("fairim: quota %v outside (0,1]", spec.Quota)
		}
	default:
		return nil, fmt.Errorf("fairim: ProblemSpec.Problem must be P1, P2, P4 or P6, got %v", spec.Problem)
	}
	cfg, err := spec.resolve(g, spec.SizingSeeds(g), resolveSolve)
	if err != nil {
		return nil, err
	}
	eval, err := cfg.newEstimator(g)
	if err != nil {
		return nil, err
	}

	var obj *objective
	var res submodular.Result
	var warm *WarmStart
	switch spec.Problem {
	case P1:
		obj = newObjective(eval, totalValue{}, cfg)
		res, warm, err = maximize(obj, cfg, g, spec.Budget)
	case P4:
		obj = newObjective(eval, concaveValue{h: cfg.h(), weights: cfg.GroupWeights}, cfg)
		res, warm, err = maximize(obj, cfg, g, spec.Budget)
	case P2:
		obj = newObjective(eval, totalQuotaValue{quota: spec.Quota}, cfg)
		res, err = cover(obj, cfg, g, spec.Quota-coverSlack)
	default: // P6
		obj = newObjective(eval, groupQuotaValue{quota: spec.Quota}, cfg)
		res, err = cover(obj, cfg, g, spec.Quota*float64(g.NumGroups())-coverSlack)
	}
	if err != nil {
		return nil, err
	}
	out, err := finishResult(spec.Problem.String(), g, res, obj, cfg)
	if err != nil {
		return nil, err
	}
	out.Warm = warm
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
	k := len(seeds)
	if k < 1 {
		k = 1
	}
	mode := resolveEvalFresh
	if spec.ReportOnSample {
		mode = resolveEvalSample
	}
	cfg, err := spec.resolve(g, k, mode)
	if err != nil {
		return nil, err
	}
	var perGroup []float64
	r := &Result{Problem: "eval", Seeds: append([]graph.NodeID(nil), seeds...)}
	if cfg.ReportOnSample {
		eval, err := cfg.newEstimator(g)
		if err != nil {
			return nil, err
		}
		for _, v := range seeds {
			eval.Add(v)
		}
		perGroup = eval.GroupUtilities()
		if _, isRIS := eval.(*ris.Estimator); isRIS {
			r.RISPerGroup = eval.SampleSize()
		} else {
			r.Samples = eval.SampleSize()
		}
	} else {
		perGroup, err = cfg.estimate(g, seeds)
		if err != nil {
			return nil, err
		}
		r.Samples = cfg.evalSamples()
	}
	r.PerGroup = perGroup
	fillDerived(r, g)
	return r, nil
}
