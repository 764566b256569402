package exp

import (
	"fmt"

	"fairtcim/internal/baselines"
	"fairtcim/internal/datasets"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/stats"
)

// Supplementary tables: the dataset-structure descriptions the paper gives
// in prose (§6.1, §7.1, Appendix C), and a baseline-heuristics comparison.

func init() {
	register(Experiment{ID: "tab-datasets", Title: "Table: structure of every dataset (stand-in) used in the evaluation", Run: runTabDatasets})
	register(Experiment{ID: "tab-baselines", Title: "Table: greedy P1/P4 vs classical seeding heuristics (synthetic)", Run: runTabBaselines})
}

func runTabDatasets(o Options) (*stats.Table, error) {
	t := stats.NewTable(
		"Dataset structure (undirected edges; homophily = Coleman index)",
		"dataset", "nodes", "edges", "groups", "minGroup", "maxGroup", "homophily", "clustering")

	add := func(name string, g *graph.Graph) {
		s := g.ComputeStats()
		minG, maxG := s.GroupSizes[0], s.GroupSizes[0]
		for _, gs := range s.GroupSizes {
			if gs < minG {
				minG = gs
			}
			if gs > maxG {
				maxG = gs
			}
		}
		t.AddRow(name,
			float64(s.N), float64(s.M/2), float64(s.NumGroups),
			float64(minG), float64(maxG),
			g.HomophilyIndex(), g.ClusteringCoefficient())
	}

	fig1, _ := generate.Fig1Example()
	add("fig1-example", fig1)

	synth, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	add("synthetic-sbm", synth)

	rice, err := datasets.RiceFacebook(0.01, o.Seed)
	if err != nil {
		return nil, err
	}
	add("rice-facebook", rice)

	instaScale := 0.05
	if o.Quick {
		instaScale = 0.01
	}
	insta, err := datasets.Instagram(instaScale, 0.06, o.Seed)
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("instagram(x%g)", instaScale), insta)

	snap, err := datasets.FacebookSnap(0.01, o.Seed)
	if err != nil {
		return nil, err
	}
	add("facebook-snap", snap)
	return t, nil
}

func runTabBaselines(o Options) (*stats.Table, error) {
	g, err := synthGraph(o, o.Seed)
	if err != nil {
		return nil, err
	}
	base := synthSpec(o, o.Seed+1)
	B := synthBudget(o)

	t := stats.NewTable(
		"Seeding strategies on the synthetic SBM (tau=20): reach vs disparity",
		"strategy", "total", "group1", "group2", "disparity")
	addSeeds := func(name string, seeds []graph.NodeID) error {
		res, err := fairim.Evaluate(g, seeds, base)
		if err != nil {
			return err
		}
		t.AddRow(name, res.NormTotal, res.NormPerGroup[0], res.NormPerGroup[1], res.Disparity)
		return nil
	}

	p1, err := fairim.Solve(g, withBudget(base, fairim.P1, B))
	if err != nil {
		return nil, err
	}
	if err := addSeeds("greedy-P1", p1.Seeds); err != nil {
		return nil, err
	}
	p4, err := fairim.Solve(g, withBudget(base, fairim.P4, B))
	if err != nil {
		return nil, err
	}
	if err := addSeeds("fair-P4-log", p4.Seeds); err != nil {
		return nil, err
	}
	if err := addSeeds("top-degree", baselines.TopDegree(g, B)); err != nil {
		return nil, err
	}
	pr, err := baselines.TopPageRank(g, B, baselines.PageRankConfig{})
	if err != nil {
		return nil, err
	}
	if err := addSeeds("pagerank", pr); err != nil {
		return nil, err
	}
	if err := addSeeds("betweenness", baselines.TopBetweenness(g, B)); err != nil {
		return nil, err
	}
	if err := addSeeds("random", baselines.Random(g, B, o.Seed+5)); err != nil {
		return nil, err
	}
	if err := addSeeds("group-prop-degree", baselines.GroupProportionalDegree(g, B)); err != nil {
		return nil, err
	}
	return t, nil
}
