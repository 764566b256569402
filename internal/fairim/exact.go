package fairim

import (
	"fmt"

	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
	"fairtcim/internal/submodular"
)

// The exact solvers enumerate every candidate subset of the given budget
// and are exponential in the budget. They exist for the 38-node Figure-1
// illustration (which reports *optimal* solutions, not greedy ones) and as
// test oracles for the greedy guarantees.

// SolveTCIMBudgetExact solves P1 by exhaustive enumeration.
func SolveTCIMBudgetExact(g *graph.Graph, budget int, cfg Config) (*Result, error) {
	return solveExact("P1", g, budget, cfg, func(e estimator.Estimator) *objective {
		return newObjective(g, e, totalValue{}, Config{}, min(budget, g.N()))
	})
}

// SolveFairTCIMBudgetExact solves P4 by exhaustive enumeration.
func SolveFairTCIMBudgetExact(g *graph.Graph, budget int, cfg Config) (*Result, error) {
	return solveExact("P4", g, budget, cfg, func(e estimator.Estimator) *objective {
		return newObjective(g, e, concaveValue{h: cfg.h(), weights: cfg.GroupWeights}, Config{}, min(budget, g.N()))
	})
}

func solveExact(problem string, g *graph.Graph, budget int, cfg Config, mk func(estimator.Estimator) *objective) (*Result, error) {
	if err := cfg.validate(g); err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, fmt.Errorf("fairim: budget must be positive, got %d", budget)
	}
	eval, err := cfg.newEstimator(g)
	if err != nil {
		return nil, err
	}
	factory := func() submodular.Objective {
		eval.Reset()
		return mk(eval)
	}
	seeds, _, err := submodular.BruteForceMax(factory, cfg.candidates(g), budget)
	if err != nil {
		return nil, err
	}
	perGroup, err := cfg.estimate(g, seeds)
	if err != nil {
		return nil, err
	}
	out := &Result{Problem: problem, Seeds: seeds, PerGroup: perGroup}
	fillDerived(out, g)
	return out, nil
}
