package fairim

import (
	"fmt"

	"fairtcim/internal/graph"
	"fairtcim/internal/submodular"
)

// SolveExact solves the spec's budget problem, P1 or P4, by enumerating
// every candidate subset of the budget on the optimization sample the spec
// sizes, and reports the optimum on fresh worlds like Solve. It is
// exponential in the budget, and exists for the 38-node Figure-1
// illustration (which reports *optimal* solutions, not greedy ones) and as
// a test oracle for the greedy guarantees.
func SolveExact(g *graph.Graph, spec ProblemSpec) (*Result, error) {
	if err := spec.validateConstraint(); err != nil {
		return nil, err
	}
	if !spec.Problem.IsBudget() {
		return nil, fmt.Errorf("fairim: the exact solver takes P1 or P4, got %v", spec.Problem)
	}
	cfg, eval, err := spec.resolve(g, spec.Budget, resolveSolve)
	if err != nil {
		return nil, err
	}
	vf := spec.valueFn()
	factory := func() submodular.Objective {
		eval.Reset()
		return newObjective(g, eval, vf, Config{}, min(spec.Budget, g.N()))
	}
	seeds, _, err := submodular.BruteForceMax(factory, cfg.candidates(g), spec.Budget)
	if err != nil {
		return nil, err
	}
	perGroup, err := cfg.estimate(g, seeds)
	if err != nil {
		return nil, err
	}
	out := &Result{Problem: spec.Problem.String(), Seeds: seeds, PerGroup: perGroup}
	fillDerived(out, g)
	return out, nil
}
