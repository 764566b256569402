package fairim

// Property-style tests of solver-level invariants: how solutions respond
// to budget, quota, and deadline changes.

import (
	"testing"

	"fairtcim/internal/cascade"
)

func TestBudgetMonotonicity(t *testing.T) {
	// More budget never hurts total influence (greedy prefixes nest, and
	// the shared eval stream makes comparisons exact).
	g := smallSBM(t, 60)
	cfg := quickCfg(61)
	prev := 0.0
	for _, b := range []int{1, 3, 6, 10} {
		res, err := Solve(g, ProblemSpec{Problem: P1, Budget: b, Sampling: quick, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total < prev-1e-9 {
			t.Fatalf("B=%d total %v below smaller-budget total %v", b, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestQuotaMonotonicity(t *testing.T) {
	// Higher quotas never need fewer seeds.
	g := smallSBM(t, 62)
	cfg := quickCfg(63)
	prev := 0
	for _, q := range []float64{0.05, 0.1, 0.2, 0.3} {
		res, err := Solve(g, ProblemSpec{Problem: P6, Quota: q, Sampling: quick, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) < prev {
			t.Fatalf("Q=%v used %d seeds, smaller quota used %d", q, len(res.Seeds), prev)
		}
		prev = len(res.Seeds)
	}
}

func TestDeadlineMonotonicity(t *testing.T) {
	// For a fixed seed set, longer deadlines never reduce utility.
	g := smallSBM(t, 64)
	seeds := []int32{0, 40, 80, 110}
	prev := 0.0
	for _, tau := range []int32{1, 3, 8, 20, cascade.NoDeadline} {
		cfg := quickCfg(65)
		cfg.Tau = tau
		res, err := Evaluate(g, seeds, ProblemSpec{Sampling: quick, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total < prev-1e-9 {
			t.Fatalf("tau=%d total %v below shorter-deadline total %v", tau, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestGreedyPrefixNesting(t *testing.T) {
	// The B=4 greedy solution is a prefix of the B=8 one (same eval stream).
	g := smallSBM(t, 66)
	cfg := quickCfg(67)
	small, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Solve(g, ProblemSpec{Problem: P4, Budget: 8, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Seeds {
		if small.Seeds[i] != big.Seeds[i] {
			t.Fatalf("greedy not nested: %v vs %v", small.Seeds, big.Seeds)
		}
	}
}

func TestMoreSamplesLowerSpread(t *testing.T) {
	// Reported totals across different eval streams should concentrate as
	// EvalSamples grows.
	g := smallSBM(t, 68)
	seeds := []int32{0, 30, 60, 90}
	spread := func(samples int) float64 {
		min, max := 1e18, -1e18
		for s := int64(0); s < 5; s++ {
			cfg := quickCfg(100 + s)
			cfg.EvalSamples = samples
			res, err := Evaluate(g, seeds, ProblemSpec{Sampling: quick, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Total < min {
				min = res.Total
			}
			if res.Total > max {
				max = res.Total
			}
		}
		return max - min
	}
	if s40, s640 := spread(40), spread(640); s640 > s40 {
		t.Fatalf("spread grew with samples: %v -> %v", s40, s640)
	}
}
