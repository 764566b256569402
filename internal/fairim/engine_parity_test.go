package fairim

import (
	"math"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/generate"
)

// Engine parity: the solvers must behave the same whether they optimize
// against forward Monte-Carlo or RIS estimates (satellite of the
// Estimator-seam refactor). Deterministic picks are checked on a p=1
// graph; stochastic agreement on the synthetic SBM within tolerance.

func TestEnginesAgreeOnDeterministicGraph(t *testing.T) {
	g := generate.TwoStars()
	for _, engine := range []Engine{EngineForwardMC, EngineRIS} {
		cfg := DefaultConfig(1)
		cfg.Tau = 1
		cfg.Engine = engine
		res, err := Solve(g, ProblemSpec{Problem: P1, Budget: 2, Sampling: Sampling{Samples: 50}, Config: cfg})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if len(res.Seeds) != 2 || res.Seeds[0] != 0 || res.Seeds[1] != 11 {
			t.Errorf("%v: seeds = %v, want [0 11]", engine, res.Seeds)
		}
	}
}

func TestEnginesAgreeOnSynthetic(t *testing.T) {
	gcfg := generate.DefaultTwoBlock(3)
	gcfg.N, gcfg.PHom, gcfg.PHet = 200, 0.06, 0.003
	g, err := generate.TwoBlock(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Parity is checked through the unified Solve entry point: both
	// engines run the same spec, differing only in Engine.
	run := func(engine Engine, problem Problem) *Result {
		cfg := DefaultConfig(5)
		cfg.Tau = 5
		cfg.EvalSamples = 400
		cfg.Engine = engine
		res, err := Solve(g, ProblemSpec{
			Problem:  problem,
			Budget:   5,
			Sampling: Sampling{Samples: 200, RISPerGroup: 6000},
			Config:   cfg,
		})
		if err != nil {
			t.Fatalf("%v %s: %v", engine, problem, err)
		}
		return res
	}
	for _, problem := range []Problem{P1, P4} {
		fwd := run(EngineForwardMC, problem)
		ris := run(EngineRIS, problem)
		// Both results are re-estimated on the same fresh forward worlds
		// (cfg.Seed+1), so utility differences reflect only seed choices.
		for i := range fwd.NormPerGroup {
			if d := math.Abs(fwd.NormPerGroup[i] - ris.NormPerGroup[i]); d > 0.1 {
				t.Errorf("%s group %d: forward-MC %.3f vs RIS %.3f", problem, i,
					fwd.NormPerGroup[i], ris.NormPerGroup[i])
			}
		}
		if d := math.Abs(fwd.NormTotal - ris.NormTotal); d > 0.1 {
			t.Errorf("%s total: forward-MC %.3f vs RIS %.3f", problem, fwd.NormTotal, ris.NormTotal)
		}
	}
}

func TestRISEngineRejectsUnsupportedModels(t *testing.T) {
	g := generate.TwoStars()
	base := DefaultConfig(1)
	base.Engine = EngineRIS

	lt := base
	lt.Model = cascade.LT
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 1, Config: lt}); err == nil {
		t.Error("RIS engine accepted the LT model")
	}
	delayed := base
	delayed.Delay = cascade.GeometricDelay{M: 0.5}
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 1, Config: delayed}); err == nil {
		t.Error("RIS engine accepted delayed diffusion")
	}
	discounted := base
	discounted.Discount = 0.5
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 1, Config: discounted}); err == nil {
		t.Error("RIS engine accepted discounted utility")
	}
}

func TestEngineByName(t *testing.T) {
	cases := map[string]Engine{
		"forward-mc": EngineForwardMC,
		"forward":    EngineForwardMC,
		"mc":         EngineForwardMC,
		"RIS":        EngineRIS,
		"ris":        EngineRIS,
	}
	for name, want := range cases {
		got, err := EngineByName(name)
		if err != nil || got != want {
			t.Errorf("EngineByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := EngineByName("quantum"); err == nil {
		t.Error("EngineByName accepted an unknown engine")
	}
}
