package exp

import (
	"fmt"

	"fairtcim/internal/cascade"
	"fairtcim/internal/community"
	"fairtcim/internal/concave"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/stats"
)

// Ablation experiments beyond the paper, indexed in DESIGN.md §5: they
// probe the design choices of this implementation (CELF laziness, RIS vs
// forward Monte Carlo, concave-curvature dial, the LT extension, and the
// estimator's sample-count stability claim of §6.1).

func init() {
	register(Experiment{ID: "abl-celf", Title: "Ablation: CELF lazy greedy vs plain greedy (evaluations and agreement)", Run: runAblCELF})
	register(Experiment{ID: "abl-ris", Title: "Ablation: RIS vs forward-MC estimates and solver agreement", Run: runAblRIS})
	register(Experiment{ID: "abl-curvature", Title: "Ablation: curvature sweep H(z)=z^alpha and log (influence/disparity frontier)", Run: runAblCurvature})
	register(Experiment{ID: "abl-lt", Title: "Ablation: Fig 4a under the Linear Threshold model", Run: runAblLT})
	register(Experiment{ID: "abl-samples", Title: "Ablation: estimator variance vs Monte-Carlo sample count", Run: runAblSamples})
	register(Experiment{ID: "abl-icm", Title: "Ablation: IC-M meeting delays (Chen et al. 2012) vs classic IC", Run: runAblICM})
	register(Experiment{ID: "abl-discount", Title: "Ablation: time-discounted utility (paper's future-work model)", Run: runAblDiscount})
	register(Experiment{ID: "abl-robust", Title: "Ablation: seed-dropout robustness of P1 vs P4 (Rahmattalabi setting)", Run: runAblRobust})
	register(Experiment{ID: "abl-saturation", Title: "Ablation: budgeted-parity frontier (per-capita weights + saturated H) on Rice", Run: runAblSaturation})
}

func topologicalGroups(g *graph.Graph, k int, seed int64) (*graph.Graph, error) {
	labels, err := community.SpectralClusters(g, k, seed)
	if err != nil {
		return nil, err
	}
	return g.WithGroups(labels)
}

func runAblCELF(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	t := stats.NewTable(
		"Ablation: CELF vs plain greedy on P4-log (same seeds expected)",
		"variant", "evaluations", "total", "disparity", "seeds-agree")
	cfg := synthConfig(o, o.Seed+1)
	lazy, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	cfg.PlainGreedy = true
	plain, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	agree := 1.0
	for i := range lazy.Seeds {
		if lazy.Seeds[i] != plain.Seeds[i] {
			agree = 0
			break
		}
	}
	t.AddRow("CELF", float64(lazy.Evaluations), lazy.Total, lazy.Disparity, agree)
	t.AddRow("plain", float64(plain.Evaluations), plain.Total, plain.Disparity, agree)
	return t, nil
}

func runAblRIS(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	const tau = 5
	B := pick(o, 10, 5)
	pool := pick(o, 3000, 400)

	risRes, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: fairim.Config{
		Tau: tau, Engine: fairim.EngineRIS, RISPerGroup: pool, Seed: o.Seed + 4, ReportOnSample: true,
	}})
	if err != nil {
		return nil, err
	}
	cfg := fairim.DefaultConfig(o.Seed + 1)
	cfg.Tau = tau
	cfg.Samples = pick(o, 300, 60)
	fwd, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	// Evaluate both seed sets with the same fresh forward estimator.
	risEval, err := fairim.Evaluate(g, risRes.Seeds, fairim.ProblemSpec{Config: cfg})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation: RIS vs forward Monte Carlo (budget problem)",
		"solver", "internal-estimate", "fresh-MC-total", "disparity")
	t.AddRow("RIS", risRes.Total, risEval.Total, risEval.Disparity)
	t.AddRow("forward-MC", fwd.Total, fwd.Total, fwd.Disparity)
	return t, nil
}

func runAblCurvature(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	hs := []concave.Function{
		concave.Identity{},
		concave.Power{Alpha: 0.75},
		concave.Sqrt{},
		concave.Power{Alpha: 0.25},
		concave.Log{},
	}
	t := stats.NewTable(
		"Ablation: curvature of H vs total influence and disparity (P4)",
		"H", "total", "group1", "group2", "disparity")
	for _, h := range hs {
		cfg := synthConfig(o, o.Seed+1)
		cfg.H = h
		res, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
		if err != nil {
			return nil, err
		}
		t.AddRow(h.Name(), res.NormTotal, res.NormPerGroup[0], res.NormPerGroup[1], res.Disparity)
	}
	return t, nil
}

func runAblLT(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	t := stats.NewTable(
		"Ablation: Fig 4a repeated under the Linear Threshold model",
		"algorithm", "total", "group1", "group2", "disparity")
	cfg := synthConfig(o, o.Seed+1)
	cfg.Model = cascade.LT
	cfg.Engine = fairim.EngineForwardMC // RIS cannot express LT
	p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	t.AddRow("P1", p1.NormTotal, p1.NormPerGroup[0], p1.NormPerGroup[1], p1.Disparity)
	for _, h := range []concave.Function{concave.Log{}, concave.Sqrt{}} {
		c := cfg
		c.H = h
		p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: c})
		if err != nil {
			return nil, err
		}
		t.AddRow("P4-"+h.Name(), p4.NormTotal, p4.NormPerGroup[0], p4.NormPerGroup[1], p4.Disparity)
	}
	return t, nil
}

func runAblICM(o Options) (*stats.Table, error) {
	// The paper's deadline notion comes from Chen et al.'s IC-M model,
	// where influence is delayed by meeting events. Slower meetings make
	// the same deadline tighter, so disparity under P1 should grow as the
	// meeting probability m falls; P4 should stay low throughout.
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	ms := []float64{1.0, 0.5, 0.3, 0.2}
	if o.Quick {
		ms = []float64{1.0, 0.3}
	}
	t := stats.NewTable(
		"Ablation: IC-M meeting probability m vs influence and disparity (tau=5)",
		"m", "P1-total", "P1-disparity", "P4-total", "P4-disparity")
	for _, m := range ms {
		cfg := synthConfig(o, o.Seed+1)
		cfg.Engine = fairim.EngineForwardMC // RIS cannot express meeting delays
		cfg.Tau = 5                         // tight deadline: mean per-hop delay 1/m now competes with τ
		if m < 1 {
			cfg.Delay = cascade.GeometricDelay{M: m}
		}
		p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: cfg})
		if err != nil {
			return nil, err
		}
		p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("m=%g", m), p1.NormTotal, p1.Disparity, p4.NormTotal, p4.Disparity)
	}
	return t, nil
}

func runAblDiscount(o Options) (*stats.Table, error) {
	// Time-discounted utility (the conclusion's future-work model): a node
	// activated at time t contributes γ^t. Stronger discounting rewards
	// faster spread; we report the discounted totals and disparity for P1
	// vs P4-log across γ.
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	gammas := []float64{0.9, 0.7, 0.5}
	if o.Quick {
		gammas = []float64{0.7}
	}
	t := stats.NewTable(
		"Ablation: discounted utility gamma^t vs influence and disparity (tau=20)",
		"gamma", "P1-total", "P1-disparity", "P4-total", "P4-disparity")
	for _, gamma := range gammas {
		cfg := synthConfig(o, o.Seed+1)
		cfg.Engine = fairim.EngineForwardMC // RIS cannot express discounting
		cfg.Discount = gamma
		p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: cfg})
		if err != nil {
			return nil, err
		}
		p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("gamma=%g", gamma), p1.NormTotal, p1.Disparity, p4.NormTotal, p4.Disparity)
	}
	return t, nil
}

func runAblRobust(o Options) (*stats.Table, error) {
	// The paper assumes seeds never fail (§2, contrast with Rahmattalabi
	// et al.). How brittle are its solutions when they do? Sample dropout
	// patterns and compare expected utility and disparity degradation.
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	cfg := synthConfig(o, o.Seed+1)
	trials := pick(o, 20, 5)
	drops := []float64{0, 0.2, 0.5}
	if o.Quick {
		drops = []float64{0, 0.5}
	}
	p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation: utility/disparity under independent seed dropout",
		"dropProb", "P1-total", "P1-disparity", "P4-total", "P4-disparity", "P4-worstDisp")
	for _, q := range drops {
		r1, err := fairim.EvaluateSeedsRobust(g, p1.Seeds, cfg, q, trials)
		if err != nil {
			return nil, err
		}
		r4, err := fairim.EvaluateSeedsRobust(g, p4.Seeds, cfg, q, trials)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("q=%g", q), r1.MeanTotal, r1.MeanDisp, r4.MeanTotal, r4.MeanDisp, r4.WorstDisp)
	}
	return t, nil
}

func runAblSaturation(o Options) (*stats.Table, error) {
	// On datasets with several very unequal groups, the raw-count concave
	// objective can overshoot a small well-connected group (see
	// EXPERIMENTS.md fig7 caveat). Per-capita weights plus a saturating H
	// yield a budgeted-parity objective: sweep the per-group target
	// fraction and trace the total-influence / all-pairs-disparity
	// frontier against plain P1 and plain P4-log.
	g, err := riceGraph(o)
	if err != nil {
		return nil, err
	}
	cfg := riceConfig(o)
	cfg.Tau = 5
	B := synthBudget(o)

	t := stats.NewTable(
		"Ablation: budgeted-parity frontier on Rice (tau=5, all-pairs Eq.2 disparity)",
		"objective", "total", "disparity")
	p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	t.AddRow("P1", p1.NormTotal, p1.Disparity)
	p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: cfg})
	if err != nil {
		return nil, err
	}
	t.AddRow("P4-log", p4.NormTotal, p4.Disparity)

	targets := []float64{0.05, 0.07, 0.09, 0.12}
	if o.Quick {
		targets = []float64{0.05}
	}
	for _, target := range targets {
		wcfg := cfg
		wcfg.GroupWeights = fairim.NormalizedGroupWeights(g)
		wcfg.H = concave.Saturated{
			Cap:   float64(g.N()) / float64(g.NumGroups()) * target,
			Inner: concave.Log{},
		}
		res, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: B, Config: wcfg})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("P4-sat@%.2f", target), res.NormTotal, res.Disparity)
	}
	return t, nil
}

func runAblSamples(o Options) (*stats.Table, error) {
	// §6.1 claims 200 samples gave stable utility estimates. Measure the
	// spread of the estimate of fτ(S;V) across independent estimator runs
	// for growing sample counts.
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	const tau = 20
	seeds := []graph.NodeID{0, 10, 100}
	counts := []int{25, 50, 100, 200, 400}
	reps := pick(o, 20, 6)
	if o.Quick {
		counts = []int{25, 100}
	}
	t := stats.NewTable(
		"Ablation: Monte-Carlo estimate stability vs sample count R",
		"R", "mean", "stddev", "ci95")
	for _, r := range counts {
		vals := make([]float64, reps)
		for rep := 0; rep < reps; rep++ {
			util, err := influence.Estimate(g, seeds, tau, cascade.IC, r, o.Seed+int64(1000*r+rep))
			if err != nil {
				return nil, err
			}
			for _, u := range util {
				vals[rep] += u
			}
		}
		s := stats.Summarize(vals)
		t.AddRow(fmt.Sprintf("R=%d", r), s.Mean, s.StdDev, s.CI95)
	}
	return t, nil
}
