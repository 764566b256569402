package fairim

import (
	"math"
	"testing"

	"fairtcim/internal/graph"
)

func TestRobustValidation(t *testing.T) {
	g := smallSBM(t, 50)
	cfg := quickCfg(51)
	if _, err := EvaluateSeedsRobust(g, []graph.NodeID{0}, cfg, -0.1, 5); err == nil {
		t.Fatal("negative drop accepted")
	}
	if _, err := EvaluateSeedsRobust(g, []graph.NodeID{0}, cfg, 1.0, 5); err == nil {
		t.Fatal("drop=1 accepted")
	}
	if _, err := EvaluateSeedsRobust(g, []graph.NodeID{0}, cfg, 0.2, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := EvaluateSeedsRobust(g, []graph.NodeID{-5}, cfg, 0.2, 3); err == nil {
		t.Fatal("bad seed accepted")
	}
}

func TestRobustZeroDropMatchesPlain(t *testing.T) {
	g := smallSBM(t, 52)
	cfg := quickCfg(53)
	seeds := []graph.NodeID{0, 30, 90}
	plain, err := Evaluate(g, seeds, ProblemSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	robust, err := EvaluateSeedsRobust(g, seeds, cfg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With no dropout every trial evaluates the same set; means should be
	// within Monte-Carlo noise of the plain estimate.
	if math.Abs(robust.MeanTotal-plain.Total) > 0.25*plain.Total+2 {
		t.Fatalf("zero-drop robust %v vs plain %v", robust.MeanTotal, plain.Total)
	}
}

func TestRobustDropReducesUtility(t *testing.T) {
	g := smallSBM(t, 54)
	cfg := quickCfg(55)
	res, err := Solve(g, ProblemSpec{Problem: P1, Budget: 8, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	light, err := EvaluateSeedsRobust(g, res.Seeds, cfg, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := EvaluateSeedsRobust(g, res.Seeds, cfg, 0.7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanTotal >= light.MeanTotal {
		t.Fatalf("heavy dropout %v not below light %v", heavy.MeanTotal, light.MeanTotal)
	}
	if heavy.WorstDisp < heavy.MeanDisp {
		t.Fatal("worst disparity below mean")
	}
}

func TestRobustDeterministic(t *testing.T) {
	g := smallSBM(t, 56)
	cfg := quickCfg(57)
	seeds := []graph.NodeID{1, 2, 3, 4}
	a, err := EvaluateSeedsRobust(g, seeds, cfg, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateSeedsRobust(g, seeds, cfg, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTotal != b.MeanTotal || a.MeanDisp != b.MeanDisp {
		t.Fatal("robust evaluation not deterministic")
	}
}
