package exp

import (
	"fmt"
	"time"

	"fairtcim/internal/fairim"
	"fairtcim/internal/stats"
)

// The accuracy experiment sweeps (ε,δ) targets through the unified
// fairim.Solve entry point on the synthetic P4 instance and reports the
// budgets the stopping rules resolve — the Hoeffding world count for
// forward MC, the geometric-doubling RR-pool size for RIS — against an
// explicit-budget baseline, plus the quality and latency each buys.

func init() {
	register(Experiment{
		ID:    "accuracy",
		Title: "Accuracy-targeted sampling: (eps,delta) -> resolved budgets, quality and cost",
		Run:   runAccuracy,
	})
}

func runAccuracy(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	cfg := fairim.DefaultConfig(o.Seed)
	cfg.Engine = o.Engine

	t := stats.NewTable(
		fmt.Sprintf("accuracy: stopping-rule sizing vs explicit budgets (engine %s, P4, B=%d)", o.Engine, B),
		"target", "worlds", "ris_pool", "total", "disparity", "ms")

	solve := func(label string, sampling fairim.Sampling) error {
		start := time.Now()
		res, err := fairim.Solve(g, fairim.ProblemSpec{
			Problem: fairim.P4, Budget: B, Sampling: sampling, Config: cfg,
		})
		if err != nil {
			return err
		}
		t.AddRow(label, float64(res.Samples), float64(res.RISPerGroup),
			res.Total, res.Disparity, ms(time.Since(start)))
		return nil
	}

	if err := solve("explicit", fairim.Sampling{Samples: pick(o, 200, 50)}); err != nil {
		return nil, err
	}
	targets := []float64{0.3, 0.2, 0.1}
	if o.Quick {
		targets = []float64{0.3, 0.2}
	}
	for _, eps := range targets {
		label := fmt.Sprintf("eps=%.2f", eps)
		if err := solve(label, fairim.Sampling{Accuracy: &fairim.Accuracy{Epsilon: eps, Delta: 0.05}}); err != nil {
			return nil, err
		}
	}
	return t, nil
}
