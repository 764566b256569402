package exp

import (
	"fmt"

	"fairtcim/internal/cascade"
	"fairtcim/internal/concave"
	"fairtcim/internal/datasets"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/stats"
	"fairtcim/internal/xrand"
)

// Real-world dataset experiments (paper §7 and Appendix C), run on the
// calibrated stand-ins of package datasets.

func init() {
	register(Experiment{ID: "fig7a", Title: "Figure 7a: Rice-Facebook, total and group influence (P1, P4-log, P4-sqrt)", Run: runFig7a})
	register(Experiment{ID: "fig7b", Title: "Figure 7b: Rice-Facebook, influence vs budget B", Run: runFig7b})
	register(Experiment{ID: "fig7c", Title: "Figure 7c: Rice-Facebook, disparity vs deadline tau", Run: runFig7c})
	register(Experiment{ID: "fig8a", Title: "Figure 8a: Rice-Facebook, cover iterations at Q=0.2", Run: runFig8a})
	register(Experiment{ID: "fig8b", Title: "Figure 8b: Rice-Facebook, group influence vs quota Q", Run: runFig8b})
	register(Experiment{ID: "fig8c", Title: "Figure 8c: Rice-Facebook, seed-set size vs quota Q", Run: runFig8c})
	register(Experiment{ID: "fig9a", Title: "Figure 9a: Instagram, budget problem influence per gender", Run: runFig9a})
	register(Experiment{ID: "fig9b", Title: "Figure 9b: Instagram, cover influence per gender", Run: runFig9b})
	register(Experiment{ID: "fig9c", Title: "Figure 9c: Instagram, cover seed counts", Run: runFig9c})
	register(Experiment{ID: "fig10a", Title: "Figure 10a: Facebook-SNAP (topological groups), budget influence", Run: runFig10a})
	register(Experiment{ID: "fig10b", Title: "Figure 10b: Facebook-SNAP, cover influence at Q=0.1", Run: runFig10b})
	register(Experiment{ID: "fig10c", Title: "Figure 10c: Facebook-SNAP, cover seed counts at Q=0.1", Run: runFig10c})
}

// --- Rice-Facebook (§7.1: pe = 0.01, 500 MC samples, B = 30) ---

func riceGraph(o Options) (*graph.Graph, error) {
	return datasets.RiceFacebook(0.01, o.Seed)
}

func riceSpec(o Options) fairim.ProblemSpec {
	spec := fairim.ProblemSpec{Sampling: fairim.Sampling{Samples: pick(o, 500, 60)}, Config: fairim.DefaultConfig(o.Seed + 1)}
	spec.Engine = o.Engine
	spec.EvalSamples = pick(o, 500, 120)
	return spec
}

func runFig7a(o Options) (*stats.Table, error) {
	g, err := riceGraph(o)
	if err != nil {
		return nil, err
	}
	base := riceSpec(o)
	B := synthBudget(o)
	p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
	if err != nil {
		return nil, err
	}
	gi, gj := mostDisparatePair(p1)
	t := stats.NewTable(
		fmt.Sprintf("Fig 7a: Rice-Facebook fraction influenced (groups %d and %d shown: max disparity)", gi+1, gj+1),
		"algorithm", "total", "group1", "group2", "pair-disparity")
	t.AddRow("P1", p1.NormTotal, p1.NormPerGroup[gi], p1.NormPerGroup[gj], pairDisparity(p1, gi, gj))
	for _, h := range []concave.Function{concave.Log{}, concave.Sqrt{}} {
		c := base
		c.H = h
		p4, err := fairim.Solve(g, withBudget(c, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		t.AddRow("P4-"+h.Name(), p4.NormTotal, p4.NormPerGroup[gi], p4.NormPerGroup[gj], pairDisparity(p4, gi, gj))
	}
	return t, nil
}

func runFig7b(o Options) (*stats.Table, error) {
	g, err := riceGraph(o)
	if err != nil {
		return nil, err
	}
	base := riceSpec(o)
	maxB := synthBudget(o)
	budgets := []int{5, 10, 15, 20, 25, 30}
	if o.Quick {
		budgets = []int{2, 5, 10}
	}
	p1, err := fairim.Solve(g, withBudget(base, fairim.P1, maxB))
	if err != nil {
		return nil, err
	}
	p4, err := fairim.Solve(g, withBudget(base, fairim.P4, maxB))
	if err != nil {
		return nil, err
	}
	gi, gj := mostDisparatePair(p1)
	t := stats.NewTable(
		"Fig 7b: Rice-Facebook influence vs budget (P1 vs P4-log; max-disparity pair)",
		"B", "P1-total", "P1-g1", "P1-g2", "P4-total", "P4-g1", "P4-g2")
	for _, b := range budgets {
		if b > len(p1.Seeds) || b > len(p4.Seeds) {
			continue
		}
		r1, err := fairim.Evaluate(g, p1.Seeds[:b], base)
		if err != nil {
			return nil, err
		}
		r4, err := fairim.Evaluate(g, p4.Seeds[:b], base)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("B=%d", b),
			r1.NormTotal, r1.NormPerGroup[gi], r1.NormPerGroup[gj],
			r4.NormTotal, r4.NormPerGroup[gi], r4.NormPerGroup[gj])
	}
	return t, nil
}

func runFig7c(o Options) (*stats.Table, error) {
	g, err := riceGraph(o)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	taus := []int32{1, 2, 5, 20, 50, cascade.NoDeadline}
	if o.Quick {
		taus = []int32{2, 20, cascade.NoDeadline}
	}
	// As in the paper (§7.1), disparity is reported for the two groups that
	// are most disparate under the fairness-blind P1 solution.
	t := stats.NewTable(
		"Fig 7c: Rice-Facebook disparity vs deadline tau (P1 vs P4-log; P1's max-disparity pair)",
		"tau", "P1", "P4")
	for _, tau := range taus {
		base := riceSpec(o)
		base.Tau = tau
		p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
		if err != nil {
			return nil, err
		}
		p4, err := fairim.Solve(g, withBudget(base, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		gi, gj := mostDisparatePair(p1)
		t.AddRow(tauLabel(tau), pairDisparity(p1, gi, gj), pairDisparity(p4, gi, gj))
	}
	return t, nil
}

func runFig8a(o Options) (*stats.Table, error) {
	g, err := riceGraph(o)
	if err != nil {
		return nil, err
	}
	quota := 0.2
	if o.Quick {
		quota = 0.1
	}
	base := riceSpec(o)
	base.Trace = true
	p2, err := fairim.Solve(g, withQuota(base, fairim.P2, quota))
	if err != nil {
		return nil, err
	}
	p6, err := fairim.Solve(g, withQuota(base, fairim.P6, quota))
	if err != nil {
		return nil, err
	}
	gi, gj := mostDisparatePair(p2)
	t := stats.NewTable(
		fmt.Sprintf("Fig 8a: Rice-Facebook cover iterations at Q=%g (max-disparity pair)", quota),
		"iteration", "P2-total", "P2-g1", "P2-g2", "P6-total", "P6-g1", "P6-g2")
	traceRows(t, p2, p6, gi, gj, "P2", "P6")
	return t, nil
}

func riceCoverSweep(o Options, title string, sizes bool) (*stats.Table, error) {
	g, err := riceGraph(o)
	if err != nil {
		return nil, err
	}
	quotas := []float64{0.1, 0.2, 0.3}
	if o.Quick {
		quotas = []float64{0.05, 0.1}
	}
	base := riceSpec(o)
	// Determine the reporting pair from the first-quota P2 solution.
	p2, err := fairim.Solve(g, withQuota(base, fairim.P2, quotas[0]))
	if err != nil {
		return nil, err
	}
	gi, gj := mostDisparatePair(p2)
	return coverSweepOn(g, quotas, base, title, sizes, gi, gj)
}

func runFig8b(o Options) (*stats.Table, error) {
	return riceCoverSweep(o, "Fig 8b: Rice-Facebook group influence vs quota Q (P2 vs P6)", false)
}

func runFig8c(o Options) (*stats.Table, error) {
	return riceCoverSweep(o, "Fig 8c: Rice-Facebook seed-set size vs quota Q (P2 vs P6)", true)
}

// --- Instagram-Activities (§7.1: pe = 0.06, tau = 2, B = 30, candidate
// subset of 5000 nodes, quotas {0.0015, 0.002}) ---

func instagramSetup(o Options) (*graph.Graph, fairim.ProblemSpec, error) {
	scale := 0.1
	candCount := 5000
	if o.Quick {
		scale = 0.01
		candCount = 300
	}
	g, err := datasets.Instagram(scale, 0.06, o.Seed)
	if err != nil {
		return nil, fairim.ProblemSpec{}, err
	}
	spec := fairim.ProblemSpec{Sampling: fairim.Sampling{Samples: pick(o, 300, 40)}, Config: fairim.DefaultConfig(o.Seed + 1)}
	spec.Engine = o.Engine
	spec.Tau = 2
	spec.EvalSamples = pick(o, 300, 80)
	rng := xrand.New(o.Seed + 2)
	spec.Candidates = sortedCandidates(g, candCount, rng.Sample(g.N(), min(candCount, g.N())))
	return g, spec, nil
}

func runFig9a(o Options) (*stats.Table, error) {
	g, base, err := instagramSetup(o)
	if err != nil {
		return nil, err
	}
	B := pick(o, 30, 5)
	t := stats.NewTable(
		"Fig 9a: Instagram budget problem, fraction influenced per gender",
		"algorithm", "total", "male", "female", "disparity")
	p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
	if err != nil {
		return nil, err
	}
	t.AddRow("P1", p1.NormTotal, p1.NormPerGroup[0], p1.NormPerGroup[1], p1.Disparity)
	for _, h := range []concave.Function{concave.Log{}, concave.Sqrt{}} {
		c := base
		c.H = h
		p4, err := fairim.Solve(g, withBudget(c, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		t.AddRow("P4-"+h.Name(), p4.NormTotal, p4.NormPerGroup[0], p4.NormPerGroup[1], p4.Disparity)
	}
	return t, nil
}

func instagramQuotas(o Options) []float64 {
	if o.Quick {
		return []float64{0.0015}
	}
	return []float64{0.0015, 0.002}
}

func runFig9b(o Options) (*stats.Table, error) {
	g, base, err := instagramSetup(o)
	if err != nil {
		return nil, err
	}
	return coverSweepOn(g, instagramQuotas(o), base,
		"Fig 9b: Instagram cover problem, fraction influenced per gender", false, 0, 1)
}

func runFig9c(o Options) (*stats.Table, error) {
	g, base, err := instagramSetup(o)
	if err != nil {
		return nil, err
	}
	return coverSweepOn(g, instagramQuotas(o), base,
		"Fig 9c: Instagram cover problem, solution set size", true, 0, 1)
}

// --- Facebook-SNAP (Appendix C: pe = 0.01, tau = 20, five topological
// groups via spectral clustering, Q = 0.1) ---

func snapSetup(o Options) (*graph.Graph, fairim.ProblemSpec, error) {
	g, err := datasets.FacebookSnap(0.01, o.Seed)
	if err != nil {
		return nil, fairim.ProblemSpec{}, err
	}
	// Re-derive groups from topology, as the paper does.
	gr, err := topologicalGroups(g, 5, o.Seed+3)
	if err != nil {
		return nil, fairim.ProblemSpec{}, err
	}
	spec := fairim.ProblemSpec{Sampling: fairim.Sampling{Samples: pick(o, 200, 40)}, Config: fairim.DefaultConfig(o.Seed + 1)}
	spec.Engine = o.Engine
	spec.EvalSamples = pick(o, 300, 80)
	return gr, spec, nil
}

func runFig10a(o Options) (*stats.Table, error) {
	g, base, err := snapSetup(o)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
	if err != nil {
		return nil, err
	}
	gi, gj := mostDisparatePair(p1)
	t := stats.NewTable(
		fmt.Sprintf("Fig 10a: Facebook-SNAP budget problem (topological groups %d and %d shown)", gi+1, gj+1),
		"algorithm", "total", "group1", "group2", "pair-disparity")
	t.AddRow("P1", p1.NormTotal, p1.NormPerGroup[gi], p1.NormPerGroup[gj], pairDisparity(p1, gi, gj))
	for _, h := range []concave.Function{concave.Log{}, concave.Sqrt{}} {
		c := base
		c.H = h
		p4, err := fairim.Solve(g, withBudget(c, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		t.AddRow("P4-"+h.Name(), p4.NormTotal, p4.NormPerGroup[gi], p4.NormPerGroup[gj], pairDisparity(p4, gi, gj))
	}
	return t, nil
}

func snapQuota(o Options) []float64 {
	if o.Quick {
		return []float64{0.05}
	}
	return []float64{0.1}
}

func runFig10b(o Options) (*stats.Table, error) {
	g, base, err := snapSetup(o)
	if err != nil {
		return nil, err
	}
	quotas := snapQuota(o)
	p2, err := fairim.Solve(g, withQuota(base, fairim.P2, quotas[0]))
	if err != nil {
		return nil, err
	}
	gi, gj := mostDisparatePair(p2)
	return coverSweepOn(g, quotas, base,
		"Fig 10b: Facebook-SNAP cover problem, group influence", false, gi, gj)
}

func runFig10c(o Options) (*stats.Table, error) {
	g, base, err := snapSetup(o)
	if err != nil {
		return nil, err
	}
	return coverSweepOn(g, snapQuota(o), base,
		"Fig 10c: Facebook-SNAP cover problem, solution set size", true, 0, 1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
