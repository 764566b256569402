package fairim

import (
	"fairtcim/internal/concave"
	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
	"fairtcim/internal/ris"
)

// valueFn maps per-group utilities fτ(S;Vᵢ) to the scalar each problem
// optimizes. Every implementation must be monotone in each coordinate and
// concave along coordinate-increasing directions, which keeps the composed
// set function monotone submodular (Lin & Bilmes composition, plus
// closure of submodularity under truncation and addition). Monotonicity
// alone is what makes a candidate's stale per-group gains bound its gain
// (submodular.GroupObjective): H is non-decreasing, group weights are
// validated positive, and min(·, Q) never decreases.
type valueFn interface {
	value(util []float64, g *graph.Graph) float64
}

// totalValue is P1's objective: fτ(S;V) = Σᵢ fτ(S;Vᵢ).
type totalValue struct{}

func (totalValue) value(util []float64, _ *graph.Graph) float64 {
	t := 0.0
	for _, u := range util {
		t += u
	}
	return t
}

// concaveValue is P4's objective: Σᵢ H(λᵢ·fτ(S;Vᵢ)), with λ = 1 when
// weights is nil (the paper's base formulation).
type concaveValue struct {
	h       concave.Function
	weights []float64
}

func (c concaveValue) value(util []float64, _ *graph.Graph) float64 {
	t := 0.0
	for i, u := range util {
		if c.weights != nil {
			u *= c.weights[i]
		}
		t += c.h.Eval(u)
	}
	return t
}

// totalQuotaValue is P2's covering objective: min(fτ(S;V)/|V|, Q); the
// cover target is Q.
type totalQuotaValue struct{ quota float64 }

func (q totalQuotaValue) value(util []float64, g *graph.Graph) float64 {
	t := 0.0
	for _, u := range util {
		t += u
	}
	frac := t / float64(g.N())
	if frac > q.quota {
		return q.quota
	}
	return frac
}

// groupQuotaValue is P6's covering objective: Σᵢ min(fτ(S;Vᵢ)/|Vᵢ|, Q);
// the cover target is kQ (Appendix B's rewriting of the per-group
// constraints).
type groupQuotaValue struct{ quota float64 }

func (q groupQuotaValue) value(util []float64, g *graph.Graph) float64 {
	t := 0.0
	for i, u := range util {
		frac := u / float64(g.GroupSize(i))
		if frac > q.quota {
			frac = q.quota
		}
		t += frac
	}
	return t
}

// objective adapts an estimator.Estimator plus a valueFn to
// submodular.Objective, optionally recording a per-iteration trace. The
// estimator may be any engine — forward Monte Carlo or RIS — or nil for a
// run answered wholly from a memoized prefix, which commits picks only
// through replay and never evaluates a gain.
type objective struct {
	eval    estimator.Estimator
	vf      valueFn
	g       *graph.Graph
	groups  int
	traceOn bool
	trace   []IterationStat
	onIter  func(IterationStat) // streaming observer; nil = none
	cancel  <-chan struct{}     // cooperative cancellation; nil = none
	stopErr error               // latched once cancel fires
	// Resolved optimization sample sizes the run reports: forward-MC
	// worlds, or RR sets per group when the RIS engine ran.
	samples, risPerGroup int

	// utils and norms record GroupUtilities and NormGroupUtilities after
	// every commit, groups entries per pick: row i is the state after pick
	// i+1. cur is the last row (all zeros before the first pick); nothing
	// writes it in place, so a replay may alias the rows of a shared memo.
	utils, norms []float64
	cur          []float64
	next         []float64 // scratch for candidate utilities
}

// newObjective starts an objective on the empty seed set; a nil eval
// needs cfg.Warm to answer from. rows presizes the utility records for a
// run known to commit at most that many picks.
func newObjective(g *graph.Graph, eval estimator.Estimator, vf valueFn, cfg Config, rows int) *objective {
	groups := g.NumGroups()
	o := &objective{
		eval:    eval,
		vf:      vf,
		g:       g,
		groups:  groups,
		traceOn: cfg.Trace,
		onIter:  cfg.OnIteration,
		cancel:  cfg.Cancel,
		utils:   make([]float64, 0, rows*groups),
		norms:   make([]float64, 0, rows*groups),
		cur:     make([]float64, groups),
		next:    make([]float64, groups),
	}
	if eval == nil {
		// Answered from the memo: report the sample it was captured on.
		o.samples, o.risPerGroup = cfg.Warm.samples, cfg.Warm.risPerGroup
	} else {
		o.samples, o.risPerGroup = sampleSizes(eval)
	}
	// A cancel that fired before the first pick stops the optimizer
	// before it spends anything.
	o.pollCancel()
	return o
}

// sampleSizes reports eval's sample the way Result does: forward-MC worlds,
// or RR sets per group for a RIS estimator.
func sampleSizes(eval estimator.Estimator) (samples, risPerGroup int) {
	if _, ok := eval.(*ris.Estimator); ok {
		return 0, eval.SampleSize()
	}
	return eval.SampleSize(), 0
}

// pollCancel latches ErrCanceled once the cancel channel is closed; the
// submodular optimizers read it through Stopped after every pick.
func (o *objective) pollCancel() {
	if o.cancel == nil || o.stopErr != nil {
		return
	}
	select {
	case <-o.cancel:
		o.stopErr = ErrCanceled
	default:
	}
}

// Stopped implements submodular.Stopper.
func (o *objective) Stopped() error { return o.stopErr }

// Gain returns the objective's exact marginal for adding v to the current
// set (exact w.r.t. the fixed Monte-Carlo worlds).
func (o *objective) Gain(v graph.NodeID) float64 {
	g, _ := o.GainRow(v)
	return g
}

// GainRow implements submodular.GroupObjective: Gain(v) and the
// estimator's per-group gains behind it, valid until the next query.
func (o *objective) GainRow(v graph.NodeID) (float64, []float64) {
	delta := o.eval.GainPerGroup(v)
	for i := range o.next {
		o.next[i] = o.cur[i] + delta[i]
	}
	return o.vf.value(o.next, o.g) - o.vf.value(o.cur, o.g), delta
}

// Utilities implements submodular.GroupObjective: the group utilities at
// the current set.
func (o *objective) Utilities() []float64 { return o.cur }

// ValueAt implements submodular.GroupObjective: the value function at any
// group utilities.
func (o *objective) ValueAt(util []float64) float64 { return o.vf.value(util, o.g) }

// Linear implements submodular.GroupObjective. Only P1's sum is linear;
// for it a per-group row bounds a gain no tighter than the stale gain, so
// CELF keeps no rows.
func (o *objective) Linear() bool {
	_, ok := o.vf.(totalValue)
	return ok
}

// Add commits v and records the utilities it leaves.
func (o *objective) Add(v graph.NodeID) {
	o.eval.Add(v)
	o.utils, o.norms = o.eval.AppendUtilities(o.utils, o.norms)
	o.commit(v)
}

// replay commits memo pick i from the rows the capturing run recorded,
// which are what the estimator would compute. An estimator, present when
// the run extends past the memo, still adds the seed. The records alias
// the memo's first i+1 rows with their capacity capped, so a later Add
// copies them instead of writing into a memo other solves share.
func (o *objective) replay(w *WarmStart, i int) {
	v := w.Seeds[i]
	if o.eval != nil {
		o.eval.Add(v)
	}
	hi := (i + 1) * o.groups
	o.utils, o.norms = w.utils[:hi:hi], w.norms[:hi:hi]
	o.commit(v)
}

// commit makes the last recorded row current and reports the pick to the
// trace and the streaming observer.
func (o *objective) commit(v graph.NodeID) {
	n := len(o.utils)
	o.cur = o.utils[n-o.groups : n]
	if o.traceOn || o.onIter != nil {
		total := 0.0
		for _, u := range o.cur {
			total += u
		}
		st := IterationStat{
			Seed:      v,
			Objective: o.vf.value(o.cur, o.g),
			Total:     total,
			// A copy: callers may keep the stat.
			NormGroup: append([]float64(nil), o.norms[n-o.groups:n]...),
		}
		if o.traceOn {
			o.trace = append(o.trace, st)
		}
		if o.onIter != nil {
			o.onIter(st)
		}
	}
	o.pollCancel()
}

// Value returns the objective at the current set.
func (o *objective) Value() float64 { return o.vf.value(o.cur, o.g) }

// candidates returns the nodes a CELF run's first pass evaluates:
// cfg.Candidates, or every node when unset. Under RIS only those in at
// least one RR set are kept; any other node covers nothing, has gain 0 on
// every seed set, and would be dropped from the heap after its evaluation.
func (o *objective) candidates(cfg Config) []graph.NodeID {
	if e, ok := o.eval.(*ris.Estimator); ok {
		return e.Collection().IndexedNodes(cfg.Candidates)
	}
	return cfg.candidates(o.g)
}
