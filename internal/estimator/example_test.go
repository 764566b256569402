package estimator_test

import (
	"fmt"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

// ExampleEstimator shows the engine-agnostic contract: the same greedy
// loop runs unchanged on a forward Monte-Carlo evaluator and on a RIS
// estimator, because both implement estimator.Estimator. A candidate's
// gain is the sum of its per-group gains. The two-star fixture has certain
// (p = 1) edges, so both engines are exact and pick the two hubs in the
// same order.
func ExampleEstimator() {
	g := generate.TwoStars()

	worlds := cascade.SampleWorlds(g, cascade.IC, 10, 1, 1)
	forward, err := influence.NewEvaluator(g, worlds, 3)
	if err != nil {
		panic(err)
	}
	col, err := ris.Sample(g, 3, []int{400, 400}, 1, 1)
	if err != nil {
		panic(err)
	}

	for _, e := range []estimator.Estimator{forward, ris.NewEstimator(col)} {
		var seeds []graph.NodeID
		for len(seeds) < 2 {
			best, bestGain := graph.NodeID(-1), -1.0
			for v := range graph.NodeID(e.Graph().N()) {
				gain := 0.0
				for _, d := range e.GainPerGroup(v) {
					gain += d
				}
				if gain > bestGain {
					best, bestGain = v, gain
				}
			}
			e.Add(best)
			seeds = append(seeds, best)
		}
		utils, _ := e.AppendUtilities(nil, nil)
		total := 0.0
		for _, u := range utils {
			total += u
		}
		fmt.Println(seeds, total)
	}
	// Output:
	// [0 11] 17
	// [0 11] 17
}
