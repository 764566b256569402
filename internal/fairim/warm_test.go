package fairim

import (
	"errors"
	"math"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/ris"
)

func warmTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 200, G: 0.6, PHom: 0.05, PHet: 0.01, PActivate: 0.2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWarmExtensionMatchesColdSolve is the end-to-end prefix-extension
// parity pin: solving at a small budget with CaptureWarm, then solving at
// a larger budget warm-started from the capture, must yield exactly the
// seeds and values of a cold large-budget solve — same estimator sample,
// fixed RNG. Both problems (P1 and P4) and both engines are covered.
func TestWarmExtensionMatchesColdSolve(t *testing.T) {
	g := warmTestGraph(t)
	const small, big = 4, 10
	for _, engine := range []Engine{EngineForwardMC, EngineRIS} {
		for _, problem := range []Problem{P1, P4} {
			cfg := DefaultConfig(5)
			cfg.Tau = 5
			cfg.Engine = engine
			cfg.Samples = 150
			cfg.ReportOnSample = true
			cfg.Trace = true

			coldCfg := cfg
			cold, err := Solve(g, ProblemSpec{Problem: problem, Budget: big, Config: coldCfg})
			if err != nil {
				t.Fatal(err)
			}

			smallCfg := cfg
			smallCfg.CaptureWarm = true
			first, err := Solve(g, ProblemSpec{Problem: problem, Budget: small, Config: smallCfg})
			if err != nil {
				t.Fatal(err)
			}
			if first.Warm == nil {
				t.Fatalf("%v/%v: CaptureWarm returned no warm state", engine, problem)
			}
			if len(first.Warm.Seeds) != small {
				t.Fatalf("%v/%v: warm prefix has %d seeds, want %d", engine, problem, len(first.Warm.Seeds), small)
			}

			warmCfg := cfg
			warmCfg.Warm = first.Warm
			warmCfg.CaptureWarm = true
			ext, err := Solve(g, ProblemSpec{Problem: problem, Budget: big, Config: warmCfg})
			if err != nil {
				t.Fatal(err)
			}

			if len(ext.Seeds) != len(cold.Seeds) {
				t.Fatalf("%v/%v: warm solve picked %d seeds, cold %d", engine, problem, len(ext.Seeds), len(cold.Seeds))
			}
			for i := range ext.Seeds {
				if ext.Seeds[i] != cold.Seeds[i] {
					t.Fatalf("%v/%v: seed %d differs, warm %d vs cold %d", engine, problem, i, ext.Seeds[i], cold.Seeds[i])
				}
			}
			if len(ext.Trace) != len(cold.Trace) {
				t.Fatalf("%v/%v: warm trace has %d entries, cold %d", engine, problem, len(ext.Trace), len(cold.Trace))
			}
			for i := range ext.Trace {
				if ext.Trace[i].Objective != cold.Trace[i].Objective || ext.Trace[i].Seed != cold.Trace[i].Seed {
					t.Fatalf("%v/%v: trace %d differs, warm %+v vs cold %+v", engine, problem, i, ext.Trace[i], cold.Trace[i])
				}
			}
			// The extension must actually skip work: replayed picks cost no
			// gain evaluations and no candidate-wide first pass.
			if ext.Evaluations >= cold.Evaluations {
				t.Fatalf("%v/%v: warm solve spent %d evaluations, cold %d", engine, problem, ext.Evaluations, cold.Evaluations)
			}
			// And the new warm state must cover the larger budget.
			if ext.Warm == nil || len(ext.Warm.Seeds) != big {
				t.Fatalf("%v/%v: extended warm state not recaptured", engine, problem)
			}
		}
	}
}

// TestWarmShorterBudgetIsPureReplay: a warm prefix longer than the asked
// budget answers by replay alone — identical seeds, zero evaluations.
func TestWarmShorterBudgetIsPureReplay(t *testing.T) {
	g := warmTestGraph(t)
	cfg := DefaultConfig(5)
	cfg.Tau = 5
	cfg.Samples = 150
	cfg.ReportOnSample = true
	cfg.CaptureWarm = true
	full, err := Solve(g, ProblemSpec{Problem: P1, Budget: 8, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if full.Warm == nil {
		t.Fatal("no warm state captured")
	}
	cfg.Warm = full.Warm
	short, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if short.Evaluations != 0 {
		t.Fatalf("pure replay spent %d evaluations", short.Evaluations)
	}
	for i, v := range short.Seeds {
		if v != full.Seeds[i] {
			t.Fatalf("replayed seed %d is %d, want %d", i, v, full.Seeds[i])
		}
	}
	if short.Warm != nil {
		t.Fatal("shorter-budget replay must not claim a longer warm state")
	}
}

// TestWarmUnboundedBudget: a warm solve sizes its result buffers by the
// candidate count, never by the budget, which callers may pass unbounded.
func TestWarmUnboundedBudget(t *testing.T) {
	g := warmTestGraph(t)
	cfg := DefaultConfig(5)
	cfg.Tau = 5
	cfg.Engine = EngineRIS
	cfg.RISPerGroup = 50
	cfg.ReportOnSample = true
	cfg.CaptureWarm = true
	prefix, err := Solve(g, ProblemSpec{Problem: P1, Budget: 2, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warm = prefix.Warm
	res, err := Solve(g, ProblemSpec{Problem: P1, Budget: math.MaxInt, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) < 2 || len(res.Seeds) > g.N() {
		t.Fatalf("%d seeds on %d nodes", len(res.Seeds), g.N())
	}
}

// TestWarmValidation: malformed warm state is rejected before any
// sampling is spent.
func TestWarmValidation(t *testing.T) {
	g := warmTestGraph(t)
	cfg := DefaultConfig(1)
	cfg.Warm = &WarmStart{Seeds: []graph.NodeID{0}}
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 2, Config: cfg}); err == nil {
		t.Error("warm start without snapshot accepted")
	}
}

// TestCancelDuringSampling: a cancel that fires before sampling starts
// aborts inside the sampling loop with ErrCanceled — for both engines and
// for the accuracy-sized RIS path.
func TestCancelDuringSampling(t *testing.T) {
	g := warmTestGraph(t)
	done := make(chan struct{})
	close(done)
	for _, engine := range []Engine{EngineForwardMC, EngineRIS} {
		cfg := DefaultConfig(3)
		cfg.Tau = 5
		cfg.Engine = engine
		cfg.Samples = 2000
		cfg.Cancel = done
		if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Config: cfg}); !errors.Is(err, ErrCanceled) {
			t.Errorf("%v: got %v, want ErrCanceled", engine, err)
		}
	}
	cfg := DefaultConfig(3)
	cfg.Tau = 5
	cfg.Engine = EngineRIS
	cfg.Cancel = done
	spec := ProblemSpec{Problem: P1, Budget: 3, Config: cfg,
		Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0.3, Delta: 0.1}}}
	if _, err := Solve(g, spec); !errors.Is(err, ErrCanceled) {
		t.Errorf("accuracy-sized RIS: got %v, want ErrCanceled", err)
	}
	// ris.Estimator injection path still works warm after cancellations.
	col, err := ris.Sample(g, 5, []int{100, 100}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	okCfg := DefaultConfig(3)
	okCfg.Tau = 5
	okCfg.Estimator = ris.NewEstimator(col)
	okCfg.ReportOnSample = true
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Config: okCfg}); err != nil {
		t.Fatal(err)
	}
}
