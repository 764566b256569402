package fairim

import (
	"errors"
	"sync/atomic"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

func TestDelayedDiffusionSolve(t *testing.T) {
	g := smallSBM(t, 30)
	cfg := quickCfg(31)
	cfg.Tau = 6
	cfg.Delay = cascade.GeometricDelay{M: 0.5}

	res, err := Solve(g, ProblemSpec{Problem: P4, Budget: 5, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 || res.Total <= 0 {
		t.Fatalf("delayed solve: %d seeds, total %v", len(res.Seeds), res.Total)
	}

	// Same budget without delays reaches more people within the deadline.
	cfg2 := cfg
	cfg2.Delay = nil
	plain, err := Solve(g, ProblemSpec{Problem: P4, Budget: 5, Sampling: quick, Config: cfg2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total >= plain.Total {
		t.Fatalf("meeting delays should reduce reach: delayed %v vs plain %v", res.Total, plain.Total)
	}
}

func TestDelayedCoverNeedsMoreSeeds(t *testing.T) {
	g := smallSBM(t, 32)
	cfg := quickCfg(33)
	cfg.Tau = 6
	const quota = 0.15

	plain, err := Solve(g, ProblemSpec{Problem: P2, Quota: quota, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Delay = cascade.GeometricDelay{M: 0.4}
	delayed, err := Solve(g, ProblemSpec{Problem: P2, Quota: quota, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(delayed.Seeds) < len(plain.Seeds) {
		t.Fatalf("delayed cover used %d seeds, plain %d", len(delayed.Seeds), len(plain.Seeds))
	}
}

func TestDelayedValidation(t *testing.T) {
	g := smallSBM(t, 34)
	cfg := quickCfg(35)
	cfg.Delay = cascade.GeometricDelay{M: 0.5}
	cfg.Model = cascade.LT
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: cfg}); err == nil {
		t.Fatal("Delay+LT accepted")
	}
	cfg.Model = cascade.IC
	cfg.Discount = 0.5
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: cfg}); err == nil {
		t.Fatal("Delay+Discount accepted")
	}
}

func TestDiscountedSolve(t *testing.T) {
	g := smallSBM(t, 36)
	cfg := quickCfg(37)
	cfg.Discount = 0.7

	res, err := Solve(g, ProblemSpec{Problem: P4, Budget: 5, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 || res.Total <= 0 {
		t.Fatalf("discounted solve: %d seeds, total %v", len(res.Seeds), res.Total)
	}

	// Discounted utility is bounded by the undiscounted one for the same
	// seeds (report paths differ only in the discount).
	cfg2 := cfg
	cfg2.Discount = 0
	same, err := Evaluate(g, res.Seeds, ProblemSpec{Sampling: quick, Config: cfg2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total > same.Total+1e-9 {
		t.Fatalf("discounted %v exceeds undiscounted %v", res.Total, same.Total)
	}
}

func TestDiscountValidation(t *testing.T) {
	g := smallSBM(t, 38)
	cfg := quickCfg(39)
	for _, d := range []float64{-0.2, 1.0, 2.5} {
		cfg.Discount = d
		if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: cfg}); err == nil {
			t.Fatalf("discount %v accepted", d)
		}
	}
}

func TestDiscountedEvaluateSeeds(t *testing.T) {
	g := smallSBM(t, 40)
	cfg := quickCfg(41)
	cfg.Discount = 0.8
	res, err := Evaluate(g, []graph.NodeID{0, 50}, ProblemSpec{Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 2 { // the two seeds at γ^0 each
		t.Fatalf("total %v below seed mass", res.Total)
	}
}

func TestDelayedTraceMonotone(t *testing.T) {
	g := smallSBM(t, 42)
	cfg := quickCfg(43)
	cfg.Tau = 8
	cfg.Delay = cascade.UniformDelay{Min: 1, Max: 3}
	cfg.Trace = true
	res, err := Solve(g, ProblemSpec{Problem: P6, Quota: 0.1, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Total < res.Trace[i-1].Total-1e-9 {
			t.Fatal("delayed trace decreased")
		}
	}
}

// countingDelay is a unit delay that counts its draws.
type countingDelay struct{ draws *atomic.Int64 }

func (d countingDelay) Sample(*xrand.RNG) int32 {
	d.draws.Add(1)
	return 1
}

func (countingDelay) Name() string { return "counting" }

// TestDelayedSamplingHonorsCancel: a cancel closed before a delayed solve
// starts stops it inside world sampling, before a single delay is drawn.
func TestDelayedSamplingHonorsCancel(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	var draws atomic.Int64
	done := make(chan struct{})
	close(done)
	cfg := DefaultConfig(1)
	cfg.Tau = 5
	cfg.Delay = countingDelay{&draws}
	cfg.Cancel = done
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Config: cfg}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if n := draws.Load(); n != 0 {
		t.Fatalf("canceled solve drew %d delays, want 0", n)
	}
}
