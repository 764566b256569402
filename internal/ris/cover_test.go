package ris_test

import (
	"testing"

	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

// coverGraph is the internal tests' testGraph, rebuilt here because this
// file lives in the external test package (it imports fairim, which
// imports ris).
func coverGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 150, G: 0.7, PHom: 0.06, PHet: 0.01, PActivate: 0.15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// solveOnCollection runs a cover problem through fairim.Solve with the
// optimization estimator layered over the pre-sampled RR-set collection.
func solveOnCollection(t *testing.T, g *graph.Graph, col *ris.Collection, p fairim.Problem, quota float64) []graph.NodeID {
	t.Helper()
	res, err := fairim.Solve(g, fairim.ProblemSpec{Problem: p, Quota: quota, Config: fairim.Config{
		Tau: col.Tau(), Estimator: ris.NewEstimator(col), ReportOnSample: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Seeds
}

func TestSolveCoverReachesQuota(t *testing.T) {
	g := coverGraph(t, 20)
	c, err := ris.Sample(g, 5, []int{1500, 1500}, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	const quota = 0.15
	seeds := solveOnCollection(t, g, c, fairim.P2, quota)
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	// Audit with the forward estimator.
	util, err := influence.EstimateIC(g, seeds, 5, 800, 23, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	frac := (util[0] + util[1]) / float64(g.N())
	if frac < quota-0.05 {
		t.Fatalf("cover reached %v < quota %v", frac, quota)
	}
}

func TestSolveFairCoverCoversEveryGroup(t *testing.T) {
	g := coverGraph(t, 24)
	c, err := ris.Sample(g, 5, []int{1500, 1500}, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	const quota = 0.12
	plain := solveOnCollection(t, g, c, fairim.P2, quota)
	fair := solveOnCollection(t, g, c, fairim.P6, quota)
	if len(fair) < len(plain) {
		t.Fatalf("fair cover used %d seeds, plain %d", len(fair), len(plain))
	}
	util, err := influence.EstimateIC(g, fair, 5, 800, 27, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range util {
		if util[i]/float64(g.GroupSize(i)) < quota-0.06 {
			t.Fatalf("group %d fraction %v below quota", i, util[i]/float64(g.GroupSize(i)))
		}
	}
}
