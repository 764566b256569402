package fairim

import (
	"errors"
	"math"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/concave"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

// smallSBM returns a quick 120-node imbalanced two-block graph exhibiting
// the paper's disparity mechanism.
func smallSBM(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 120, G: 0.7, PHom: 0.08, PHet: 0.004, PActivate: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// quickCfg and quick together size the package's quick solves: τ = 10,
// 60 forward-MC worlds (so 1,200 RR sets per group under RIS) and 120
// report worlds.
func quickCfg(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Tau = 10
	cfg.EvalSamples = 120
	return cfg
}

var quick = Sampling{Samples: 60}

func TestConfigValidation(t *testing.T) {
	g := smallSBM(t, 1)
	ten := Sampling{Samples: 10}
	bad := []ProblemSpec{
		{Sampling: ten, Config: Config{Tau: -1}},
		{Sampling: Sampling{Samples: -2}, Config: Config{Tau: 5}}, // zero means DefaultSamples; negative stays invalid
		{Sampling: ten, Config: Config{Tau: 5, EvalSamples: -1}},
		{Sampling: ten, Config: Config{Tau: 5, Candidates: []graph.NodeID{-1}}},
		{Sampling: ten, Config: Config{Tau: 5, Candidates: []graph.NodeID{9999}}},
	}
	for i, spec := range bad {
		spec.Problem, spec.Budget = P1, 2
		if _, err := Solve(g, spec); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 0, Sampling: quick, Config: quickCfg(1)}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := Solve(g, ProblemSpec{Problem: P2, Quota: 0, Sampling: quick, Config: quickCfg(1)}); err == nil {
		t.Fatal("zero quota accepted")
	}
	if _, err := Solve(g, ProblemSpec{Problem: P2, Quota: 1.5, Sampling: quick, Config: quickCfg(1)}); err == nil {
		t.Fatal("quota > 1 accepted")
	}
}

func TestBudgetSolversBasic(t *testing.T) {
	g := smallSBM(t, 2)
	cfg := quickCfg(3)
	for _, p := range []Problem{P1, P4} {
		res, err := Solve(g, ProblemSpec{Problem: p, Budget: 5, Sampling: quick, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != 5 {
			t.Fatalf("%s picked %d seeds", res.Problem, len(res.Seeds))
		}
		if res.Total <= 0 {
			t.Fatalf("%s total %v", res.Problem, res.Total)
		}
		if len(res.PerGroup) != 2 || len(res.NormPerGroup) != 2 {
			t.Fatalf("%s group vectors wrong", res.Problem)
		}
		sum := res.PerGroup[0] + res.PerGroup[1]
		if math.Abs(sum-res.Total) > 1e-9 {
			t.Fatalf("%s total %v != Σ groups %v", res.Problem, res.Total, sum)
		}
		if res.Disparity < 0 || res.Disparity > 1 {
			t.Fatalf("%s disparity %v", res.Problem, res.Disparity)
		}
		// Seeds must be distinct.
		seen := map[graph.NodeID]bool{}
		for _, s := range res.Seeds {
			if seen[s] {
				t.Fatalf("%s repeated seed %d", res.Problem, s)
			}
			seen[s] = true
		}
	}
}

func TestFairnessReducesDisparity(t *testing.T) {
	// The headline claim (Fig. 4a): P4-log has lower disparity than P1 on an
	// imbalanced, homophilous graph, at a modest total-influence cost.
	g := smallSBM(t, 4)
	for _, engine := range []Engine{EngineForwardMC, EngineRIS} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := quickCfg(5)
			cfg.Engine = engine
			p1, err := Solve(g, ProblemSpec{Problem: P1, Budget: 8, Sampling: quick, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			p4, err := Solve(g, ProblemSpec{Problem: P4, Budget: 8, Sampling: quick, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if p4.Disparity >= p1.Disparity {
				t.Fatalf("P4 disparity %v not lower than P1 %v", p4.Disparity, p1.Disparity)
			}
			if p4.Total > p1.Total*1.2 {
				t.Logf("note: P4 total %v exceeds P1 %v (possible on some graphs; see §7.2)", p4.Total, p1.Total)
			}
		})
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := smallSBM(t, 6)
	cfg := quickCfg(7)
	a, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed sets differ: %v vs %v", a.Seeds, b.Seeds)
		}
	}
	if a.Total != b.Total {
		t.Fatal("totals differ across identical runs")
	}
}

func TestPlainGreedyMatchesCELF(t *testing.T) {
	g := smallSBM(t, 8)
	cfg := quickCfg(9)
	lazy, err := Solve(g, ProblemSpec{Problem: P4, Budget: 6, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlainGreedy = true
	plain, err := Solve(g, ProblemSpec{Problem: P4, Budget: 6, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lazy.Seeds {
		if lazy.Seeds[i] != plain.Seeds[i] {
			t.Fatalf("CELF %v vs plain %v", lazy.Seeds, plain.Seeds)
		}
	}
	if lazy.Evaluations >= plain.Evaluations {
		t.Fatalf("CELF evaluations %d not fewer than plain %d", lazy.Evaluations, plain.Evaluations)
	}
}

func TestCoverSolversReachQuota(t *testing.T) {
	g := smallSBM(t, 10)
	const quota = 0.2
	for _, engine := range []Engine{EngineForwardMC, EngineRIS} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := quickCfg(11)
			cfg.Engine = engine
			p2, err := Solve(g, ProblemSpec{Problem: P2, Quota: quota, Sampling: quick, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if p2.NormTotal < quota-0.05 {
				t.Fatalf("P2 reached %v < quota %v", p2.NormTotal, quota)
			}

			p6, err := Solve(g, ProblemSpec{Problem: P6, Quota: quota, Sampling: quick, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			// P6 must cover every group (tolerance for fresh-world noise).
			for i, frac := range p6.NormPerGroup {
				if frac < quota-0.06 {
					t.Fatalf("P6 group %d fraction %v < quota %v", i, frac, quota)
				}
			}
			// P6 needs at least as many seeds as P2 (it solves a harder
			// constraint).
			if len(p6.Seeds) < len(p2.Seeds) {
				t.Fatalf("P6 used %d seeds, P2 used %d", len(p6.Seeds), len(p2.Seeds))
			}
		})
	}
}

func TestCoverInfeasibleQuota(t *testing.T) {
	// Two isolated nodes, quota 1: reachable only by seeding everything;
	// with MaxSeeds 1 it must fail.
	b := graph.NewBuilder(4)
	b.SetGroups([]int{0, 0, 1, 1})
	g := b.MustBuild()
	cfg := quickCfg(12)
	cfg.MaxSeeds = 1
	if _, err := Solve(g, ProblemSpec{Problem: P6, Quota: 1.0, Sampling: quick, Config: cfg}); err == nil {
		t.Fatal("infeasible cover did not error")
	}
}

func TestCoverIsolatedGraphFullQuota(t *testing.T) {
	// Without MaxSeeds, covering isolated nodes at quota 1 requires seeding
	// every node.
	b := graph.NewBuilder(4)
	b.SetGroups([]int{0, 0, 1, 1})
	g := b.MustBuild()
	cfg := quickCfg(13)
	res, err := Solve(g, ProblemSpec{Problem: P6, Quota: 1.0, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("needed %d seeds, want 4", len(res.Seeds))
	}
	if res.Disparity > 1e-9 {
		t.Fatalf("full coverage should have zero disparity, got %v", res.Disparity)
	}
}

func TestTraceRecorded(t *testing.T) {
	g := smallSBM(t, 14)
	cfg := quickCfg(15)
	cfg.Trace = true
	res, err := Solve(g, ProblemSpec{Problem: P6, Quota: 0.15, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(res.Seeds) {
		t.Fatalf("trace has %d entries for %d seeds", len(res.Trace), len(res.Seeds))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Total < res.Trace[i-1].Total-1e-9 {
			t.Fatal("trace totals decreased")
		}
		if res.Trace[i].Objective < res.Trace[i-1].Objective-1e-9 {
			t.Fatal("trace objective decreased")
		}
	}
	// No trace by default.
	cfg.Trace = false
	res2, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Fatal("unexpected trace")
	}
}

func TestCandidateRestriction(t *testing.T) {
	g := smallSBM(t, 16)
	cfg := quickCfg(17)
	cfg.Candidates = []graph.NodeID{0, 1, 2, 3, 4}
	res, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Seeds {
		if s > 4 {
			t.Fatalf("seed %d outside candidate set", s)
		}
	}
	// A budget beyond the candidate set stops once every candidate is
	// seeded: each unseeded node still gains at least itself.
	res, err = Solve(g, ProblemSpec{Problem: P1, Budget: 8, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != len(cfg.Candidates) {
		t.Fatalf("budget 8 over %d candidates picked %v", len(cfg.Candidates), res.Seeds)
	}
}

func TestEvaluateSeeds(t *testing.T) {
	g := smallSBM(t, 18)
	cfg := quickCfg(19)
	res, err := Evaluate(g, []graph.NodeID{0, 60}, ProblemSpec{Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 2 {
		t.Fatalf("total %v < seed count", res.Total)
	}
	if _, err := Evaluate(g, []graph.NodeID{-2}, ProblemSpec{Sampling: quick, Config: cfg}); err == nil {
		t.Fatal("bad seed accepted")
	}
	// Evaluate on a solver's output reproduces the solver's report.
	solved, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Evaluate(g, solved.Seeds, ProblemSpec{Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re.Total-solved.Total) > 1e-9 {
		t.Fatalf("re-evaluation %v != solver report %v", re.Total, solved.Total)
	}
}

// TestEvaluateReportHonorsCancel: a fresh-world report stops on a closed
// Config.Cancel with ErrCanceled, on the IC path that reads coins and on
// the sampled LT, delayed and discounted paths; an open one changes
// nothing.
func TestEvaluateReportHonorsCancel(t *testing.T) {
	g := smallSBM(t, 18)
	closed := make(chan struct{})
	close(closed)
	for name, set := range map[string]func(*Config){
		"ic":         func(*Config) {},
		"lt":         func(c *Config) { c.Model = cascade.LT },
		"delayed":    func(c *Config) { c.Delay = cascade.GeometricDelay{M: 0.5} },
		"discounted": func(c *Config) { c.Discount = 0.8 },
	} {
		cfg := quickCfg(19)
		set(&cfg)
		want, err := Evaluate(g, []graph.NodeID{0, 60}, ProblemSpec{Sampling: quick, Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Cancel = make(chan struct{})
		got, err := Evaluate(g, []graph.NodeID{0, 60}, ProblemSpec{Sampling: quick, Config: cfg})
		if err != nil {
			t.Fatalf("%s, open cancel: %v", name, err)
		}
		if got.Total != want.Total {
			t.Fatalf("%s, open cancel: total %v, want %v", name, got.Total, want.Total)
		}
		cfg.Cancel = closed
		if _, err := Evaluate(g, []graph.NodeID{0, 60}, ProblemSpec{Sampling: quick, Config: cfg}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s, closed cancel: got %v, want ErrCanceled", name, err)
		}
	}
}

func TestExactSolversOnFig1(t *testing.T) {
	g, names := generate.Fig1Example()
	spec := ProblemSpec{Problem: P1, Budget: 2, Sampling: Sampling{Samples: 120},
		Config: Config{Tau: 2, Model: cascade.IC, EvalSamples: 400, Seed: 20, H: concave.Log{}}}

	p1, err := SolveExact(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Problem = P4
	p4, err := SolveExact(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 1 story at τ=2: the unfair optimum starves the red
	// group; the fair optimum does not.
	if p1.NormPerGroup[1] > 0.03 {
		t.Fatalf("P1 red-group utility %v, expected ≈0 at τ=2", p1.NormPerGroup[1])
	}
	if p4.NormPerGroup[1] < 0.1 {
		t.Fatalf("P4 red-group utility %v, expected clearly positive", p4.NormPerGroup[1])
	}
	if p4.Disparity >= p1.Disparity {
		t.Fatalf("fair disparity %v not below unfair %v", p4.Disparity, p1.Disparity)
	}
	_ = names
}

// TestSolveExactRejects: the exact solver takes only a budget problem with
// a positive budget.
func TestSolveExactRejects(t *testing.T) {
	g, _ := generate.Fig1Example()
	for _, spec := range []ProblemSpec{
		{Problem: P2, Quota: 0.2, Sampling: quick, Config: quickCfg(1)},
		{Problem: P6, Quota: 0.2, Sampling: quick, Config: quickCfg(1)},
		{Problem: P4, Sampling: quick, Config: quickCfg(1)},
		{Budget: 2, Sampling: quick, Config: quickCfg(1)},
	} {
		if _, err := SolveExact(g, spec); err == nil {
			t.Errorf("%v with budget %d accepted", spec.Problem, spec.Budget)
		}
	}
}

func TestExactBeatsGreedyNever(t *testing.T) {
	// Greedy can never beat the exact optimum on the same objective
	// (evaluated on the same fresh worlds).
	g, _ := generate.Fig1Example()
	spec := ProblemSpec{Problem: P1, Budget: 2, Sampling: Sampling{Samples: 80},
		Config: Config{Tau: 4, Model: cascade.IC, EvalSamples: 300, Seed: 21}}
	exact, err := SolveExact(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Solve(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Allow slack: optimization and evaluation worlds differ.
	if greedy.Total > exact.Total*1.15+1 {
		t.Fatalf("greedy %v implausibly beats exact %v", greedy.Total, exact.Total)
	}
	// And the (1-1/e) guarantee should hold comfortably.
	if greedy.Total < (1-1/math.E)*exact.Total-1.5 {
		t.Fatalf("greedy %v below guarantee vs exact %v", greedy.Total, exact.Total)
	}
}

func TestTheoremBounds(t *testing.T) {
	if b := TheoremOneBound(concave.Identity{}, 10); math.Abs(b-(1-1/math.E)*10) > 1e-12 {
		t.Fatalf("TheoremOneBound = %v", b)
	}
	if b := TheoremTwoBound(99, []int{2, 3}); math.Abs(b-math.Log(100)*5) > 1e-12 {
		t.Fatalf("TheoremTwoBound = %v", b)
	}
}

func TestTheoremOneHoldsEmpirically(t *testing.T) {
	// fτ(greedy-P4) >= (1-1/e)·H(fτ(P1 optimum)) per Theorem 1, checked on
	// the Fig-1 instance where the optimum is computable.
	g, _ := generate.Fig1Example()
	spec := ProblemSpec{Problem: P1, Budget: 2, Sampling: Sampling{Samples: 100},
		Config: Config{Tau: 4, Model: cascade.IC, EvalSamples: 400, Seed: 22, H: concave.Log{}}}
	opt, err := SolveExact(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Problem = P4
	fair, err := Solve(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	bound := TheoremOneBound(concave.Log{}, opt.Total)
	if fair.Total < bound-0.5 {
		t.Fatalf("P4 total %v below Theorem 1 bound %v", fair.Total, bound)
	}
}

func TestLTModelSupported(t *testing.T) {
	g := smallSBM(t, 23)
	cfg := quickCfg(24)
	cfg.Model = cascade.LT
	res, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 || res.Total <= 0 {
		t.Fatalf("LT solve: %d seeds, total %v", len(res.Seeds), res.Total)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(5)
	if samples, _ := (ProblemSpec{Config: cfg}).Counts(); cfg.Tau != 20 || samples != 200 || cfg.Seed != 5 {
		t.Fatalf("DefaultConfig = %+v, %d samples", cfg, samples)
	}
	if cfg.H.Name() != "log" {
		t.Fatalf("default H = %q", cfg.H.Name())
	}
}
