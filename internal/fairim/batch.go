package fairim

import (
	"fmt"
	"math"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
	"fairtcim/internal/submodular"
)

// BatchOptions carries the serving layer's hooks into a batched solve.
// All fields are optional; the zero value batches with cold sampling.
// Each hook is asked once per execution unit — a coalesced group or a
// spec running alone — with the unit's representative spec as planned:
// the member with the largest budget, which carries everything needed to
// key a sample cache. A spec's own Config.Estimator or Config.Warm wins
// over the matching hook.
type BatchOptions struct {
	// Estimator, if non-nil, supplies a warm optimization estimator
	// (built from a cached sample). It is asked only for units that
	// evaluate a gain: a unit whose memoized prefix covers its largest
	// budget is answered without one. Returning a nil estimator (with nil
	// error) means "no cached sample, sample cold"; an error fails every
	// member of the unit.
	Estimator func(gid int, rep ProblemSpec) (estimator.Estimator, error)
	// Warm, if non-nil, supplies a budget-problem unit's memoized greedy
	// prefix to replay (see Config.Warm); it is asked before Estimator.
	// The same equivalence contract applies: the warm state must have been
	// captured on the same graph, sample, and objective the key
	// guarantees.
	Warm func(gid int, rep ProblemSpec) *WarmStart
	// OnWarm, if non-nil, receives a budget-problem unit's final CELF
	// state after its run, for memoization. The WarmStart is immutable
	// and covers the unit's longest member.
	OnWarm func(gid int, rep ProblemSpec, w *WarmStart)
}

// BatchOutcome is one spec's result inside a batch: exactly what the
// sequential Solve for that spec would have returned, including its
// error.
type BatchOutcome struct {
	Result *Result
	Err    error
}

// BatchReport summarizes how SolveBatch planned a batch.
type BatchReport struct {
	// Groups is the number of coalesced groups — execution units that
	// served two or more specs from one shared estimator and greedy run.
	Groups int
	// Singletons is the number of specs that ran alone (incompatible with
	// every other spec in the batch, or not shareable at all).
	Singletons int
	// Coalesced is the number of specs served by a shared run — the sum
	// of member counts over Groups.
	Coalesced int
	// GroupOf maps each spec index to its execution-unit id (units are
	// numbered in first-occurrence order); -1 for specs rejected before
	// planning (invalid problem/constraint).
	GroupOf []int
}

// shareKey identifies the class of specs that may share one estimator
// and one lazy-greedy run with bit-identical per-member answers. Two
// specs with equal keys resolve to the same optimization sample and the
// same objective landscape, so the CELF prefix property (see
// submodular.Result.EvalsAt) lets one run at the largest budget answer
// every member. Quotas are part of the objective for P2/P6, so cover
// specs only coalesce with exact-constraint duplicates.
type shareKey struct {
	problem     Problem
	engine      Engine
	model       cascade.Model
	tau         int32
	samples     int
	risPerGroup int
	evalSamples int
	seed        int64
	cancel      <-chan struct{}
	hasAcc      bool
	epsBits     uint64
	deltaBits   uint64
	sizingK     int // accuracy-sized samples depend on the sizing budget
	quotaBits   uint64
	maxSeeds    int
	hID         string // P4 concave function identity
}

// shareable reports whether the spec may join a coalesced group, and its
// key when it may. Specs carrying per-request machinery the shared run
// cannot reproduce member-by-member (candidate restrictions, group
// weights, delayed/discounted diffusion, plain-greedy ablation,
// streaming callbacks, injected estimators or warm state, or sampling
// fields a solo resolve would reject) run alone.
func (s ProblemSpec) shareable(g *graph.Graph) (shareKey, bool) {
	c := &s.Config
	if c.PlainGreedy || c.Candidates != nil || c.GroupWeights != nil ||
		c.Delay != nil || c.Discount != 0 || c.OnIteration != nil ||
		c.Estimator != nil || c.Warm != nil {
		return shareKey{}, false
	}
	if s.Sampling.Samples < 0 || s.Sampling.RISPerGroup < 0 || c.EvalSamples < 0 {
		return shareKey{}, false
	}
	acc := s.Sampling.Accuracy
	if acc != nil {
		if s.Sampling.Samples > 0 || s.Sampling.RISPerGroup > 0 || acc.validate() != nil {
			return shareKey{}, false
		}
	}
	samples, rpg := s.Counts()
	k := shareKey{
		problem:     s.Problem,
		engine:      c.Engine,
		model:       c.Model,
		tau:         c.Tau,
		samples:     samples,
		risPerGroup: rpg,
		evalSamples: c.EvalSamples,
		seed:        c.Seed,
		cancel:      c.Cancel,
	}
	if acc != nil {
		k.hasAcc = true
		k.epsBits = math.Float64bits(acc.Epsilon)
		k.deltaBits = math.Float64bits(acc.Delta)
		// Accuracy-sized samples grow with the sizing budget, so specs
		// with different sizing budgets resolve to different samples and
		// must not share.
		k.sizingK = s.SizingSeeds(g)
	}
	switch s.Problem {
	case P2, P6:
		k.quotaBits = math.Float64bits(s.Quota)
		k.maxSeeds = c.MaxSeeds
	case P4:
		k.hID = fmt.Sprintf("%#v", c.h())
	}
	return k, true
}

// SolveBatch solves a batch of specs against one graph, coalescing
// compatible specs onto shared work: one optimization sample and one
// CELF lazy-greedy run per group of specs that provably walk the same
// pick sequence, with each member's answer peeled off at its own budget
// (cover members are exact-constraint duplicates and share the whole
// run). Every outcome is bit-identical to what the sequential
// Solve(g, spec) would return — seeds, utilities, disparity, trace, and
// the Evaluations count that spec's own run would have spent (via
// submodular.Result.EvalsAt). A spec the planner cannot share runs alone
// on the same runner, hooks included; invalid specs fail individually
// without touching the rest of the batch.
func SolveBatch(g *graph.Graph, specs []ProblemSpec, opts *BatchOptions) ([]BatchOutcome, BatchReport) {
	if opts == nil {
		opts = &BatchOptions{}
	}
	outcomes := make([]BatchOutcome, len(specs))
	report := BatchReport{GroupOf: make([]int, len(specs))}

	// Plan execution units — each a list of spec indices in arrival
	// order — numbered by first occurrence: shareable specs group by key,
	// every other spec is a unit of its own.
	var units [][]int
	byKey := make(map[shareKey]int)
	for i, spec := range specs {
		if err := spec.validateConstraint(); err != nil {
			outcomes[i] = BatchOutcome{Err: err}
			report.GroupOf[i] = -1
			continue
		}
		gid := len(units)
		if key, ok := spec.shareable(g); ok {
			if id, seen := byKey[key]; seen {
				gid = id
			} else {
				byKey[key] = gid
			}
		}
		if gid == len(units) {
			units = append(units, nil)
		}
		units[gid] = append(units[gid], i)
		report.GroupOf[i] = gid
	}
	for _, members := range units {
		if len(members) >= 2 {
			report.Groups++
			report.Coalesced += len(members)
		} else {
			report.Singletons++
		}
	}

	for gid, members := range units {
		runUnit(g, gid, members, specs, opts, outcomes)
	}
	return outcomes, report
}

// representative returns the unit member every shared resource is
// built for: the largest budget for budget problems (its run covers
// every smaller member as a prefix), the first member otherwise (cover
// members are exact duplicates of the solver-relevant fields).
func representative(members []int, specs []ProblemSpec) int {
	rep := members[0]
	if specs[rep].Problem.IsBudget() {
		for _, i := range members[1:] {
			if specs[i].Budget > specs[rep].Budget {
				rep = i
			}
		}
	}
	return rep
}

// failUnit records err for every member of the unit.
func failUnit(members []int, outcomes []BatchOutcome, err error) {
	for _, i := range members {
		outcomes[i] = BatchOutcome{Err: err}
	}
}

// runUnit executes one execution unit — a coalesced group or a spec
// running alone — on Solve's objective constructor and greedy driver:
// resolve the representative, build the unit's one estimator (none when
// its memo covers every member) and objective, run one greedy pass at the
// largest constraint, and peel each member's Result out of it.
func runUnit(g *graph.Graph, gid int, members []int, specs []ProblemSpec, opts *BatchOptions, outcomes []BatchOutcome) {
	rep := specs[representative(members, specs)]
	// Hooks always see the representative as planned — before the
	// warm/estimator injections below, which would otherwise trip
	// eligibility checks keyed on the wire-decoded spec. A spec's own
	// estimator or warm state wins over the hooks'.
	planned := rep
	if opts.Warm != nil && rep.Problem.IsBudget() && rep.Warm == nil {
		rep.Warm = opts.Warm(gid, planned)
	}
	if opts.Estimator != nil && rep.Estimator == nil && !rep.fromMemo() {
		est, err := opts.Estimator(gid, planned)
		if err != nil {
			failUnit(members, outcomes, err)
			return
		}
		// Injecting before resolve keeps accuracy specs from sizing (and
		// building) a second sample the estimator already embodies.
		rep.Estimator = est
	}
	// The shared run traces when any member wants a trace; peeling narrows
	// it back.
	for _, i := range members {
		rep.Trace = rep.Trace || specs[i].Trace
	}
	cfg, obj, err := rep.prepare(g)
	if err != nil {
		failUnit(members, outcomes, err)
		return
	}
	res, snap, err := rep.greedy(obj, cfg, g)
	if err != nil {
		failUnit(members, outcomes, err)
		return
	}
	if opts.OnWarm != nil {
		if w := captureWarm(res, snap, obj); w != nil {
			opts.OnWarm(gid, planned, w)
		}
	}
	for _, i := range members {
		outcomes[i] = peelMember(g, specs[i], cfg, obj, res, snap)
	}
}

// peelMember extracts one member's Result from the unit's run,
// reproducing exactly what Solve(g, member) would have returned.
func peelMember(g *graph.Graph, member ProblemSpec, cfg Config, obj *objective,
	res submodular.Result, snap *submodular.LazySnapshot) BatchOutcome {

	// The member's share of the pick sequence: its budget prefix for
	// P1/P4 (CELF at budget k picks exactly the first k seeds of the
	// shared run), the whole run for covers (exact duplicates).
	k := len(res.Seeds)
	stopsInside := member.Problem.IsBudget() && member.Budget <= k
	if stopsInside {
		k = member.Budget
	}
	out := &Result{
		Problem: member.Problem.String(),
		Seeds:   append([]graph.NodeID(nil), res.Seeds[:k]...),
	}
	// Evaluations the member's own run would have spent: a run that stops
	// at its budget inside the shared sequence spends the cumulative count
	// at its last pick; a cover, or a run the shared sequence saturates,
	// spends the whole run's count, trailing no-gain pops included.
	if stopsInside {
		out.Evaluations = res.EvalsAt[k-1]
	} else {
		out.Evaluations = res.Evaluations
	}
	if member.Trace {
		out.Trace = append([]IterationStat(nil), obj.trace[:k]...)
	}

	if member.ReportOnSample {
		util := obj.cur
		if k < len(res.Seeds) {
			util = obj.utils[(k-1)*obj.groups : k*obj.groups]
		}
		out.PerGroup = append([]float64(nil), util...)
	} else {
		var err error
		if out.PerGroup, err = cfg.estimate(g, out.Seeds); err != nil {
			return BatchOutcome{Err: err}
		}
	}
	out.Samples, out.RISPerGroup = obj.samples, obj.risPerGroup
	fillDerived(out, g)

	// Only a member the run ended at owns its final heap snapshot; shorter
	// members' intermediate heaps were not captured (their sequential runs
	// would have one, but Warm is an in-process extension seam, not part
	// of the wire result).
	if member.CaptureWarm && k == len(res.Seeds) {
		out.Warm = captureWarm(res, snap, obj)
	}
	return BatchOutcome{Result: out}
}
