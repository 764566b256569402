// Jobads: the paper's motivating scenario — a job posting with an
// application deadline propagates through a university social network.
// Whoever hears about it after the deadline gains nothing. This example
// runs on the Rice-Facebook stand-in and compares the fairness-blind
// optimizer with FairTCIM and with classical seeding heuristics
// (top-degree, PageRank, random, group-proportional degree), reporting
// which age groups actually hear in time.
//
//	go run ./examples/jobads
package main

import (
	"fmt"
	"log"
	"os"

	"fairtcim/internal/baselines"
	"fairtcim/internal/concave"
	"fairtcim/internal/datasets"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/stats"
)

func main() {
	g, err := datasets.RiceFacebook(0.01, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Rice-Facebook stand-in: %d students, %d friendships, %d age groups\n",
		g.N(), g.M()/2, g.NumGroups())

	cfg := fairim.DefaultConfig(2)
	cfg.Tau = 5 // the application window is short
	worlds := fairim.Sampling{Samples: 300}
	const budget = 30

	table := stats.NewTable(
		"Who hears about the job before the deadline? (tau=5, B=30)",
		"strategy", "total%", "g1%", "g2%", "g3%", "g4%", "disparity")

	addRow := func(name string, seeds []graph.NodeID) {
		res, err := fairim.Evaluate(g, seeds, fairim.ProblemSpec{Sampling: worlds, Config: cfg})
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow(name,
			100*res.NormTotal,
			100*res.NormPerGroup[0], 100*res.NormPerGroup[1],
			100*res.NormPerGroup[2], 100*res.NormPerGroup[3],
			res.Disparity)
	}

	p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: budget, Sampling: worlds, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	addRow("greedy-P1", p1.Seeds)

	p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: budget, Sampling: worlds, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	addRow("fair-P4-log", p4.Seeds)

	// With four very unequal age groups, H on raw counts over-rewards the
	// smallest (and best-connected) group. Combining the paper's λ-weight
	// remedy (§6.2.1) with a saturating H yields a budgeted-parity
	// objective: per-capita comparison, and no credit for pushing a group
	// past the target fraction.
	const targetFrac = 0.07
	wcfg := cfg
	wcfg.GroupWeights = fairim.NormalizedGroupWeights(g)
	wcfg.H = concave.Saturated{
		Cap:   float64(g.N()) / float64(g.NumGroups()) * targetFrac,
		Inner: concave.Log{},
	}
	p4s, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: budget, Sampling: worlds, Config: wcfg})
	if err != nil {
		log.Fatal(err)
	}
	addRow("fair-P4-saturated", p4s.Seeds)

	addRow("top-degree", baselines.TopDegree(g, budget))
	pr, err := baselines.TopPageRank(g, budget, baselines.PageRankConfig{})
	if err != nil {
		log.Fatal(err)
	}
	addRow("pagerank", pr)
	addRow("random", baselines.Random(g, budget, 3))
	addRow("group-prop-degree", baselines.GroupProportionalDegree(g, budget))

	fmt.Println()
	if err := table.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreading: greedy-P1 and the centrality heuristics chase the dense groups;")
	fmt.Println("plain fair-P4-log lifts starved groups but can overshoot a small,")
	fmt.Println("well-connected one; fair-P4-saturated (per-capita weights + capped H)")
	fmt.Println("should show the lowest disparity at a modest total cost.")
}
