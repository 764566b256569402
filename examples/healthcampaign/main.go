// Healthcampaign: a public-health agency must spread vaccination-drive
// information across a large social platform within two sharing rounds,
// reaching men and women alike. At this scale (tens of thousands of
// nodes), forward Monte-Carlo greedy is expensive, so this example uses
// the reverse-influence-sampling (RIS) engine: τ-bounded RR sets sampled
// once per gender group, shared by a plain (P1) and a fair (P4) solve,
// then audited with an independent forward simulation.
//
//	go run ./examples/healthcampaign
package main

import (
	"fmt"
	"log"
	"time"

	"fairtcim/internal/datasets"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

func main() {
	// 5% of the published Instagram-Activities scale: ~27k users.
	g, err := datasets.Instagram(0.05, 0.06, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %d users (%d men, %d women), %d ties\n\n",
		g.N(), g.GroupSize(0), g.GroupSize(1), g.M()/2)

	const (
		tau    = 2
		budget = 30
		pool   = 20000 // RR sets per gender
	)

	start := time.Now()
	col, err := ris.Sample(g, tau, []int{pool, pool}, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled %d τ-bounded RR sets in %v\n", col.NumSets(), time.Since(start).Round(time.Millisecond))

	solve := func(p fairim.Problem) []graph.NodeID {
		// A fresh estimator per solve over the one shared sample; P4's
		// concave wrapper defaults to log.
		res, err := fairim.Solve(g, fairim.ProblemSpec{Problem: p, Budget: budget, Config: fairim.Config{
			Tau: tau, Estimator: ris.NewEstimator(col), ReportOnSample: true,
		}})
		if err != nil {
			log.Fatal(err)
		}
		return res.Seeds
	}
	plainSeeds, fairSeeds := solve(fairim.P1), solve(fairim.P4)

	audit := func(name string, seeds []graph.NodeID) {
		util, err := influence.EstimateIC(g, seeds, tau, 500, 3, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		norm := []float64{
			util[0] / float64(g.GroupSize(0)),
			util[1] / float64(g.GroupSize(1)),
		}
		fmt.Printf("%-18s reached %.0f people | men %.3f%% women %.3f%% | disparity %.5f\n",
			name, util[0]+util[1], 100*norm[0], 100*norm[1], influence.Disparity(norm))
	}
	fmt.Println("\nindependent forward-simulation audit (500 samples):")
	audit("RIS plain (P1)", plainSeeds)
	audit("RIS fair (P4-log)", fairSeeds)

	fmt.Println("\nthe fair variant redirects reach toward whichever gender the plain")
	fmt.Println("optimizer under-serves; with RIS the whole pipeline runs in seconds")
	fmt.Println("at this scale (vs minutes for forward Monte-Carlo greedy).")
}
