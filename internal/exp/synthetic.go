package exp

import (
	"fmt"

	"fairtcim/internal/cascade"
	"fairtcim/internal/concave"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/stats"
)

// Synthetic experiments (paper §6): the default setup is the two-block
// SBM of §6.1 — 500 nodes, 70:30 split, phom=0.025, phet=0.001, pe=0.05,
// τ=20, B=30, 200 Monte-Carlo samples. Quick mode shrinks the graph and
// sample counts so tests and benchmarks stay fast.

func synthGraph(o Options, seed int64) (*graph.Graph, error) {
	cfg := generate.DefaultTwoBlock(seed)
	if o.Quick {
		cfg.N = 200
		cfg.PHom = 0.06 // keep average degree comparable at the smaller size
		cfg.PHet = 0.003
	}
	return generate.TwoBlock(cfg)
}

func synthSpec(o Options, seed int64) fairim.ProblemSpec {
	spec := fairim.ProblemSpec{Sampling: fairim.Sampling{Samples: pick(o, 200, 50)}, Config: fairim.DefaultConfig(seed)}
	spec.Engine = o.Engine
	spec.EvalSamples = pick(o, 400, 100)
	return spec
}

func synthBudget(o Options) int { return pick(o, 30, 10) }

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1 table: optimal P1 vs P4-log on the 38-node example (pe=0.7, B=2)",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig4a",
		Title: "Figure 4a: total and group influence for P1, P4-log, P4-sqrt (synthetic)",
		Run:   runFig4a,
	})
	register(Experiment{
		ID:    "fig4b",
		Title: "Figure 4b: influence vs seed budget B, P1 vs P4-log (synthetic)",
		Run:   runFig4b,
	})
	register(Experiment{
		ID:    "fig4c",
		Title: "Figure 4c: disparity vs deadline tau, P1 vs P4-log (synthetic)",
		Run:   runFig4c,
	})
	register(Experiment{
		ID:    "fig5a",
		Title: "Figure 5a: disparity vs activation probability pe at tau in {2, inf} (synthetic)",
		Run:   runFig5a,
	})
	register(Experiment{
		ID:    "fig5b",
		Title: "Figure 5b: disparity vs group size ratio (synthetic)",
		Run:   runFig5b,
	})
	register(Experiment{
		ID:    "fig5c",
		Title: "Figure 5c: disparity vs inter/intra edge probability ratio (synthetic)",
		Run:   runFig5c,
	})
	register(Experiment{
		ID:    "fig6a",
		Title: "Figure 6a: cover-problem iterations at Q=0.2, P2 vs P6 (synthetic)",
		Run:   runFig6a,
	})
	register(Experiment{
		ID:    "fig6b",
		Title: "Figure 6b: group influence vs quota Q, P2 vs P6 (synthetic)",
		Run:   runFig6b,
	})
	register(Experiment{
		ID:    "fig6c",
		Title: "Figure 6c: seed-set size vs quota Q, P2 vs P6 (synthetic)",
		Run:   runFig6c,
	})
}

func runFig1(o Options) (*stats.Table, error) {
	g, names := generate.Fig1Example()
	idToName := map[graph.NodeID]string{}
	for name, id := range names {
		idToName[id] = name
	}
	seedLabel := func(seeds []graph.NodeID) string {
		s := "{"
		for i, v := range seeds {
			if i > 0 {
				s += ","
			}
			if n, ok := idToName[v]; ok {
				s += n
			} else {
				s += fmt.Sprint(v)
			}
		}
		return s + "}"
	}
	t := stats.NewTable(
		"Fig 1: optimal TCIM-Budget (P1) vs FairTCIM-Budget (P4-log), 38-node example",
		"setting", "f/|V|", "f1/|V1|", "f2/|V2|", "disparity")

	taus := []int32{cascade.NoDeadline, 4, 2}
	tauName := map[int32]string{cascade.NoDeadline: "inf", 4: "4", 2: "2"}
	for _, tau := range taus {
		base := fairim.ProblemSpec{Sampling: fairim.Sampling{Samples: pick(o, 300, 80)}, Config: fairim.Config{
			Tau:         tau,
			Model:       cascade.IC,
			Engine:      o.Engine,
			EvalSamples: pick(o, 1000, 200),
			Seed:        o.Seed,
			H:           concave.Log{},
		}}
		p1, err := fairim.SolveExact(g, withBudget(base, fairim.P1, 2))
		if err != nil {
			return nil, err
		}
		p4, err := fairim.SolveExact(g, withBudget(base, fairim.P4, 2))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("tau=%s P1 S=%s", tauName[tau], seedLabel(p1.Seeds)),
			p1.NormTotal, p1.NormPerGroup[0], p1.NormPerGroup[1], p1.Disparity)
		t.AddRow(fmt.Sprintf("tau=%s P4 S=%s", tauName[tau], seedLabel(p4.Seeds)),
			p4.NormTotal, p4.NormPerGroup[0], p4.NormPerGroup[1], p4.Disparity)
	}
	return t, nil
}

func runFig4a(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	base := synthSpec(o, o.Seed+1)
	B := synthBudget(o)

	t := stats.NewTable(
		"Fig 4a: fraction influenced, synthetic SBM (tau=20, B=30)",
		"algorithm", "total", "group1", "group2", "disparity")

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

func runFig4b(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	base := synthSpec(o, o.Seed+1)
	maxB := synthBudget(o)
	budgets := []int{5, 10, 15, 20, 25, 30}
	if o.Quick {
		budgets = []int{2, 5, 10}
	}

	// Greedy solutions nest, so one max-budget run yields every prefix;
	// each prefix is re-evaluated on fresh worlds.
	p1, err := fairim.Solve(g, withBudget(base, fairim.P1, maxB))
	if err != nil {
		return nil, err
	}
	p4, err := fairim.Solve(g, withBudget(base, fairim.P4, maxB))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Fig 4b: fraction influenced vs seed budget B, P1 vs P4-log",
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
			r1.NormTotal, r1.NormPerGroup[0], r1.NormPerGroup[1],
			r4.NormTotal, r4.NormPerGroup[0], r4.NormPerGroup[1])
	}
	return t, nil
}

func runFig4c(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	B := synthBudget(o)
	taus := []int32{1, 2, 5, 10, 20, cascade.NoDeadline}
	if o.Quick {
		taus = []int32{1, 5, cascade.NoDeadline}
	}
	t := stats.NewTable(
		"Fig 4c: disparity vs deadline tau, P1 vs P4-log",
		"tau", "P1", "P4")
	for _, tau := range taus {
		base := synthSpec(o, o.Seed+1)
		base.Tau = tau
		p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
		if err != nil {
			return nil, err
		}
		p4, err := fairim.Solve(g, withBudget(base, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		t.AddRow(tauLabel(tau), p1.Disparity, p4.Disparity)
	}
	return t, nil
}

func runFig5a(o Options) (*stats.Table, error) {
	pes := []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0}
	if o.Quick {
		pes = []float64{0.05, 0.3, 1.0}
	}
	B := synthBudget(o)
	t := stats.NewTable(
		"Fig 5a: disparity vs activation probability pe (P1 vs P4-log, tau in {2, inf})",
		"pe", "P1-tau2", "P4-tau2", "P1-tauInf", "P4-tauInf")
	for _, pe := range pes {
		gcfg := generate.DefaultTwoBlock(o.Seed)
		if o.Quick {
			gcfg.N, gcfg.PHom, gcfg.PHet = 200, 0.06, 0.003
		}
		gcfg.PActivate = pe
		g, err := generate.TwoBlock(gcfg)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 4)
		for _, tau := range []int32{2, cascade.NoDeadline} {
			base := synthSpec(o, o.Seed+1)
			base.Tau = tau
			p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
			if err != nil {
				return nil, err
			}
			p4, err := fairim.Solve(g, withBudget(base, fairim.P4, B))
			if err != nil {
				return nil, err
			}
			row = append(row, p1.Disparity, p4.Disparity)
		}
		t.AddRow(fmt.Sprintf("pe=%g", pe), row...)
	}
	return t, nil
}

func runFig5b(o Options) (*stats.Table, error) {
	ratios := []struct {
		label string
		g     float64
	}{
		{"55:45", 0.55}, {"60:40", 0.60}, {"70:30", 0.70}, {"80:20", 0.80},
	}
	B := synthBudget(o)
	t := stats.NewTable(
		"Fig 5b: disparity vs group size ratio |V1|:|V2| (P1 vs P4-log)",
		"ratio", "P1", "P4")
	for _, r := range ratios {
		gcfg := generate.DefaultTwoBlock(o.Seed)
		if o.Quick {
			gcfg.N, gcfg.PHom, gcfg.PHet = 200, 0.06, 0.003
		}
		gcfg.G = r.g
		g, err := generate.TwoBlock(gcfg)
		if err != nil {
			return nil, err
		}
		base := synthSpec(o, o.Seed+1)
		p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
		if err != nil {
			return nil, err
		}
		p4, err := fairim.Solve(g, withBudget(base, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		t.AddRow(r.label, p1.Disparity, p4.Disparity)
	}
	return t, nil
}

func runFig5c(o Options) (*stats.Table, error) {
	settings := []struct {
		label      string
		phet, phom float64
	}{
		{"1:1", 0.025, 0.025}, {"3:5", 0.015, 0.025}, {"2:5", 0.01, 0.025}, {"1:25", 0.001, 0.025},
	}
	B := synthBudget(o)
	t := stats.NewTable(
		"Fig 5c: disparity vs inter/intra group edge ratio (P1 vs P4-log)",
		"phet:phom", "P1", "P4")
	for _, s := range settings {
		gcfg := generate.DefaultTwoBlock(o.Seed)
		gcfg.PHom, gcfg.PHet = s.phom, s.phet
		if o.Quick {
			gcfg.N = 200
			gcfg.PHom, gcfg.PHet = s.phom*2.4, s.phet*2.4 // keep degrees comparable
		}
		g, err := generate.TwoBlock(gcfg)
		if err != nil {
			return nil, err
		}
		base := synthSpec(o, o.Seed+1)
		p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
		if err != nil {
			return nil, err
		}
		p4, err := fairim.Solve(g, withBudget(base, fairim.P4, B))
		if err != nil {
			return nil, err
		}
		t.AddRow(s.label, p1.Disparity, p4.Disparity)
	}
	return t, nil
}

func runFig6a(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	quota := 0.2
	if o.Quick {
		quota = 0.15
	}
	base := synthSpec(o, o.Seed+1)
	base.Trace = true
	p2, err := fairim.Solve(g, withQuota(base, fairim.P2, quota))
	if err != nil {
		return nil, err
	}
	p6, err := fairim.Solve(g, withQuota(base, fairim.P6, quota))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig 6a: greedy cover iterations at Q=%g (trace on optimization worlds)", quota),
		"iteration", "P2-total", "P2-g1", "P2-g2", "P6-total", "P6-g1", "P6-g2")
	traceRows(t, p2, p6, 0, 1, "P2", "P6")
	return t, nil
}

func runFig6b(o Options) (*stats.Table, error) {
	return coverQuotaSweep(o, "Fig 6b: fraction influenced per group vs quota Q (P2 vs P6)", false)
}

func runFig6c(o Options) (*stats.Table, error) {
	return coverQuotaSweep(o, "Fig 6c: solution set size vs quota Q (P2 vs P6)", true)
}

// coverQuotaSweep implements Figures 6b/6c (and is reused for the other
// datasets): group influence or seed counts across quotas.
func coverQuotaSweep(o Options, title string, sizes bool) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	quotas := []float64{0.1, 0.2, 0.3}
	if o.Quick {
		quotas = []float64{0.1, 0.2}
	}
	base := synthSpec(o, o.Seed+1)
	return coverSweepOn(g, quotas, base, title, sizes, 0, 1)
}

// coverSweepOn runs P2 and P6 for each quota on g and tabulates either the
// two groups' influence fractions or the seed-set sizes.
func coverSweepOn(g *graph.Graph, quotas []float64, base fairim.ProblemSpec, title string, sizes bool, gi, gj int) (*stats.Table, error) {
	var t *stats.Table
	if sizes {
		t = stats.NewTable(title, "Q", "P2-size", "P6-size")
	} else {
		t = stats.NewTable(title, "Q", "P2-g1", "P2-g2", "P6-g1", "P6-g2")
	}
	for _, q := range quotas {
		p2, err := fairim.Solve(g, withQuota(base, fairim.P2, q))
		if err != nil {
			return nil, err
		}
		p6, err := fairim.Solve(g, withQuota(base, fairim.P6, q))
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("Q=%g", q)
		if sizes {
			t.AddRow(label, float64(len(p2.Seeds)), float64(len(p6.Seeds)))
		} else {
			t.AddRow(label,
				p2.NormPerGroup[gi], p2.NormPerGroup[gj],
				p6.NormPerGroup[gi], p6.NormPerGroup[gj])
		}
	}
	return t, nil
}

func tauLabel(tau int32) string {
	if tau == cascade.NoDeadline {
		return "tau=inf"
	}
	return fmt.Sprintf("tau=%d", tau)
}
