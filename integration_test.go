package fairtcim

// End-to-end integration tests crossing module boundaries: generate →
// serialize → parse → solve → audit, theorem guarantees across estimators,
// and solver agreement between the forward and RIS pipelines.

import (
	"bytes"
	"math"
	"testing"

	"fairtcim/internal/baselines"
	"fairtcim/internal/concave"
	"fairtcim/internal/datasets"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

// TestPipelineRoundTrip drives the full user path: generate a graph, write
// it to the text format, read it back, solve P4 on the copy, and check the
// result matches solving on the original.
func TestPipelineRoundTrip(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 150, G: 0.7, PHom: 0.06, PHet: 0.004, PActivate: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairim.DefaultConfig(2)
	cfg.Tau = 8
	worlds := fairim.Sampling{Samples: 80}
	a, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: 5, Sampling: worlds, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fairim.Solve(g2, fairim.ProblemSpec{Problem: fairim.P4, Budget: 5, Sampling: worlds, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("seed counts differ: %d vs %d", len(a.Seeds), len(b.Seeds))
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("round-tripped graph produced different seeds: %v vs %v", a.Seeds, b.Seeds)
		}
	}
	if a.Total != b.Total {
		t.Fatalf("totals differ: %v vs %v", a.Total, b.Total)
	}
}

// TestFairnessStoryAcrossDatasets asserts the paper's headline qualitative
// claim on every dataset stand-in: P4-log yields no higher disparity than
// P1 for the max-disparity pair, under the dataset's paper parameters.
func TestFairnessStoryAcrossDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	type ds struct {
		name string
		load func() (*graph.Graph, error)
		tau  int32
	}
	cases := []ds{
		{"synthetic", func() (*graph.Graph, error) {
			return generate.TwoBlock(generate.DefaultTwoBlock(3))
		}, 20},
		{"rice", func() (*graph.Graph, error) { return datasets.RiceFacebook(0.01, 3) }, 20},
		{"instagram", func() (*graph.Graph, error) { return datasets.Instagram(0.02, 0.06, 3) }, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g, err := c.load()
			if err != nil {
				t.Fatal(err)
			}
			cfg := fairim.DefaultConfig(4)
			cfg.Tau = c.tau
			worlds := fairim.Sampling{Samples: 120}
			cfg.EvalSamples = 240
			p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: 20, Sampling: worlds, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			p4, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: 20, Sampling: worlds, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			// The pair the unfair solution most disadvantages must improve.
			gi, gj := 0, 1
			worst := -1.0
			for i := 0; i < len(p1.NormPerGroup); i++ {
				for j := i + 1; j < len(p1.NormPerGroup); j++ {
					d := math.Abs(p1.NormPerGroup[i] - p1.NormPerGroup[j])
					if d > worst {
						worst, gi, gj = d, i, j
					}
				}
			}
			d1 := math.Abs(p1.NormPerGroup[gi] - p1.NormPerGroup[gj])
			d4 := math.Abs(p4.NormPerGroup[gi] - p4.NormPerGroup[gj])
			if d4 > d1+0.02 {
				t.Fatalf("%s: P4 pair disparity %v exceeds P1 %v", c.name, d4, d1)
			}
		})
	}
}

// TestGreedyBeatsBaselinesOnObjective: the greedy P1 solver should match or
// beat heuristic seed selections on estimated total influence.
func TestGreedyBeatsBaselinesOnObjective(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 200, G: 0.7, PHom: 0.05, PHet: 0.004, PActivate: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairim.DefaultConfig(6)
	cfg.Tau = 5
	worlds := fairim.Sampling{Samples: 150}
	const B = 8
	p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: B, Sampling: worlds, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for name, seeds := range map[string][]graph.NodeID{
		"degree": baselines.TopDegree(g, B),
		"random": baselines.Random(g, B, 7),
	} {
		res, err := fairim.Evaluate(g, seeds, fairim.ProblemSpec{Sampling: worlds, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total > p1.Total*1.1 {
			t.Fatalf("baseline %s (%v) beats greedy (%v) by >10%%", name, res.Total, p1.Total)
		}
	}
}

// TestRISAndForwardAgreeOnFigOneGraph cross-validates the two estimation
// pipelines on the small deterministic example graph.
func TestRISAndForwardAgreeOnFigOneGraph(t *testing.T) {
	g, names := generate.Fig1Example()
	seeds := []graph.NodeID{names["a"], names["c"]}
	const tau = 2

	fwd, err := influence.EstimateIC(g, seeds, tau, 6000, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ris.Sample(g, tau, []int{12000, 12000}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	est := ris.NewEstimator(col)
	for _, s := range seeds {
		est.Add(s)
	}
	rr := est.GroupUtilities()
	for i := range fwd {
		if math.Abs(fwd[i]-rr[i]) > 0.6 {
			t.Fatalf("group %d: forward %v vs RIS %v", i, fwd[i], rr[i])
		}
	}
}

// TestP6DisparityBound: any feasible FairTCIM-Cover solution has disparity
// at most 1 − Q up to Monte-Carlo noise (§5.2.2).
func TestP6DisparityBound(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 200, G: 0.7, PHom: 0.05, PHet: 0.01, PActivate: 0.1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, quota := range []float64{0.1, 0.3, 0.5} {
		cfg := fairim.DefaultConfig(10)
		cfg.Tau = 10
		worlds := fairim.Sampling{Samples: 150}
		res, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P6, Quota: quota, Sampling: worlds, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Disparity > (1-quota)+0.08 {
			t.Fatalf("Q=%v: disparity %v breaks the 1-Q bound", quota, res.Disparity)
		}
	}
}

// TestSaturatedWeightedObjective: the budgeted-parity extension (per-capita
// weights + saturated H) must not increase disparity relative to plain P1
// on an imbalanced graph.
func TestSaturatedWeightedObjective(t *testing.T) {
	g, err := datasets.RiceFacebook(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fairim.DefaultConfig(2)
	cfg.Tau = 5
	worlds := fairim.Sampling{Samples: 150}
	p1, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P1, Budget: 20, Sampling: worlds, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := cfg
	wcfg.GroupWeights = fairim.NormalizedGroupWeights(g)
	wcfg.H = concave.Saturated{
		Cap:   float64(g.N()) / float64(g.NumGroups()) * 0.06,
		Inner: concave.Log{},
	}
	sat, err := fairim.Solve(g, fairim.ProblemSpec{Problem: fairim.P4, Budget: 20, Sampling: worlds, Config: wcfg})
	if err != nil {
		t.Fatal(err)
	}
	if sat.Disparity > p1.Disparity {
		t.Fatalf("saturated objective disparity %v exceeds P1 %v", sat.Disparity, p1.Disparity)
	}
}

// TestNormalizedGroupWeights checks the λ construction.
func TestNormalizedGroupWeights(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 100, G: 0.8, PHom: 0.05, PHet: 0.01, PActivate: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := fairim.NormalizedGroupWeights(g)
	// λᵢ·|Vᵢ| must be equal across groups (per-capita comparability).
	a := w[0] * float64(g.GroupSize(0))
	b := w[1] * float64(g.GroupSize(1))
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("λ·|V| differs: %v vs %v", a, b)
	}
	// λᵢ·|Vᵢ| = |V|/k: the common per-capita scale.
	if math.Abs(a-float64(g.N())/2) > 1e-9 {
		t.Fatalf("λ·|V| = %v, want %v", a, float64(g.N())/2)
	}
}
