package fairim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
	"fairtcim/internal/submodular"
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
			smp := Sampling{Samples: 150}
			cfg.ReportOnSample = true
			cfg.Trace = true

			coldCfg := cfg
			cold, err := Solve(g, ProblemSpec{Problem: problem, Budget: big, Sampling: smp, Config: coldCfg})
			if err != nil {
				t.Fatal(err)
			}

			smallCfg := cfg
			smallCfg.CaptureWarm = true
			first, err := Solve(g, ProblemSpec{Problem: problem, Budget: small, Sampling: smp, Config: smallCfg})
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
			ext, err := Solve(g, ProblemSpec{Problem: problem, Budget: big, Sampling: smp, Config: warmCfg})
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
			// Exactly the cold run's: the snapshot carries each item's key
			// and, for P4, its gain row, so the extension prunes and
			// re-evaluates what the cold run did past the prefix.
			if first.Evaluations+ext.Evaluations != cold.Evaluations {
				t.Fatalf("%v/%v: prefix %d + extension %d evaluations, cold run %d", engine, problem, first.Evaluations, ext.Evaluations, cold.Evaluations)
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
	smp := Sampling{Samples: 150}
	cfg.ReportOnSample = true
	cfg.CaptureWarm = true
	full, err := Solve(g, ProblemSpec{Problem: P1, Budget: 8, Sampling: smp, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if full.Warm == nil {
		t.Fatal("no warm state captured")
	}
	cfg.Warm = full.Warm
	short, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: smp, Config: cfg})
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
	smp := Sampling{RISPerGroup: 50}
	cfg.ReportOnSample = true
	cfg.CaptureWarm = true
	prefix, err := Solve(g, ProblemSpec{Problem: P1, Budget: 2, Sampling: smp, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warm = prefix.Warm
	res, err := Solve(g, ProblemSpec{Problem: P1, Budget: math.MaxInt, Sampling: smp, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) < 2 || len(res.Seeds) > g.N() {
		t.Fatalf("%d seeds on %d nodes", len(res.Seeds), g.N())
	}
}

// TestRISFirstPassSkipsUncoveredNodes: on a graph where most nodes lie in
// no RR set, a RIS solve's first pass evaluates only the nodes that do —
// within Config.Candidates when that is set — and the snapshot it
// memoizes holds only indexed candidates with a positive gain, in arrays
// sized to those candidates, not to the graph: a prefix memo keeps the
// snapshot as captured. The seeds are still those of the plain greedy
// ablation, which scans every node.
func TestRISFirstPassSkipsUncoveredNodes(t *testing.T) {
	g := warmTestGraph(t)
	col, err := ris.Sample(g, 2, []int{10, 10}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	indexed := col.IndexedNodes(nil)
	if len(indexed) == 0 || 2*len(indexed) > g.N() {
		t.Fatalf("%d of %d nodes indexed; the test needs a sparse index", len(indexed), g.N())
	}
	solve := func(problem Problem, budget int, set func(*Config)) *Result {
		t.Helper()
		cfg := DefaultConfig(5)
		cfg.Tau = 2
		cfg.ReportOnSample = true
		cfg.Estimator = ris.NewEstimator(col)
		if set != nil {
			set(&cfg)
		}
		res, err := Solve(g, ProblemSpec{Problem: problem, Budget: budget, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The first pick is the fresh top of the first pass, so a budget-1
	// run spends exactly the first pass.
	if got := solve(P1, 1, nil).Evaluations; got != len(indexed) {
		t.Errorf("first pass evaluated %d nodes, want the %d indexed", got, len(indexed))
	}
	var even []graph.NodeID
	want := 0
	for v := range graph.NodeID(g.N()) {
		if v%2 == 0 {
			even = append(even, v)
			if slices.Contains(indexed, v) {
				want++
			}
		}
	}
	if got := solve(P1, 1, func(c *Config) { c.Candidates = even }).Evaluations; got != want {
		t.Errorf("restricted first pass evaluated %d nodes, want the %d indexed candidates", got, want)
	}

	res := solve(P4, 5, func(c *Config) { c.CaptureWarm = true })
	if res.Warm == nil {
		t.Fatal("no warm state captured")
	}
	items, rows := res.Warm.Snapshot.Items, res.Warm.Snapshot.Rows
	if len(items)+len(res.Seeds) > len(indexed) {
		t.Errorf("snapshot holds %d items beside %d picks; only %d nodes are indexed", len(items), len(res.Seeds), len(indexed))
	}
	groups := g.NumGroups()
	if len(rows) != groups*len(items) || cap(items) > len(indexed) || cap(rows) > groups*len(indexed) {
		t.Errorf("snapshot of %d items keeps capacity for %d items and %d of %d row entries; %d nodes are indexed, %d groups",
			len(items), cap(items), cap(rows), len(rows), len(indexed), groups)
	}
	for _, it := range items {
		if it.Gain <= 0 || !slices.Contains(indexed, it.Node) {
			t.Errorf("snapshot item %+v: want an indexed node with a positive gain", it)
		}
	}
	plain := solve(P4, 5, func(c *Config) { c.PlainGreedy = true })
	if !slices.Equal(res.Seeds, plain.Seeds) {
		t.Errorf("CELF picked %v, plain greedy %v", res.Seeds, plain.Seeds)
	}
}

// TestWarmValidation: malformed warm state is rejected before any
// sampling is spent — including one built by hand, which carries no
// recorded utilities to replay.
func TestWarmValidation(t *testing.T) {
	g := warmTestGraph(t)
	cfg := DefaultConfig(1)
	cfg.Warm = &WarmStart{Seeds: []graph.NodeID{0}}
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 2, Config: cfg}); err == nil {
		t.Error("warm start without snapshot accepted")
	}
	cfg.Warm = &WarmStart{Seeds: []graph.NodeID{0}, Snapshot: &submodular.LazySnapshot{}}
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 1, Config: cfg}); err == nil || !strings.Contains(err.Error(), "not captured") {
		t.Errorf("hand-built warm start: got %v, want a not-captured error", err)
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
		cfg.Cancel = done
		if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: Sampling{Samples: 2000}, Config: cfg}); !errors.Is(err, ErrCanceled) {
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

// TestWarmReplayMatchesColdSolve pins memo replays to cold solves: for
// every budget a captured prefix covers, a warm Solve returns what a cold
// Solve at that budget returns — seeds, utility bits, resolved sample
// sizes, the trace and the OnIteration stream — on every engine, for P1
// and P4, reported on the sample and on fresh worlds. Only Evaluations
// differ: a replay spends none.
func TestWarmReplayMatchesColdSolve(t *testing.T) {
	g := smallSBM(t, 8)
	const memoK = 5
	every := []int{1, 2, 3, 4, 5}
	engines := []struct {
		name     string
		sampling Sampling
		budgets  []int
		set      func(*Config)
	}{
		{"ris", Sampling{Samples: quick.Samples, RISPerGroup: 300}, every, func(c *Config) { c.Engine = EngineRIS }},
		{"ic", quick, every, func(c *Config) {}},
		{"lt", quick, every, func(c *Config) { c.Model = cascade.LT }},
		{"delayed", quick, every, func(c *Config) { c.Delay = cascade.GeometricDelay{M: 0.5} }},
		{"discounted", quick, every, func(c *Config) { c.Discount = 0.8 }},
		// An accuracy-sized sample depends on the sizing budget, so a memo
		// is equivalent only at the budget it was captured at; there the
		// replay must report the sizes the capturing run resolved.
		{"ris-accuracy", Sampling{Accuracy: &Accuracy{Epsilon: 0.3, Delta: 0.1}}, []int{memoK},
			func(c *Config) { c.Engine = EngineRIS }},
		{"ic-accuracy", Sampling{Accuracy: &Accuracy{Epsilon: 0.3, Delta: 0.2}}, []int{memoK}, func(c *Config) {}},
	}
	for _, eng := range engines {
		for _, problem := range []Problem{P1, P4} {
			for _, onSample := range []bool{true, false} {
				label := fmt.Sprintf("%s/%v/on-sample=%v", eng.name, problem, onSample)
				base := quickCfg(3)
				eng.set(&base)
				base.ReportOnSample = onSample
				capture := base
				capture.CaptureWarm = true
				memo, err := Solve(g, ProblemSpec{Problem: problem, Budget: memoK, Sampling: eng.sampling, Config: capture})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if memo.Warm == nil || len(memo.Warm.Seeds) != memoK {
					t.Fatalf("%s: captured %+v, want a %d-seed memo", label, memo.Warm, memoK)
				}
				for _, k := range eng.budgets {
					var coldStream, warmStream []IterationStat
					cold := base
					cold.Trace = true
					cold.OnIteration = func(st IterationStat) { coldStream = append(coldStream, st) }
					want, err := Solve(g, ProblemSpec{Problem: problem, Budget: k, Sampling: eng.sampling, Config: cold})
					if err != nil {
						t.Fatalf("%s k=%d cold: %v", label, k, err)
					}
					warm := cold
					warm.Warm = memo.Warm
					warm.OnIteration = func(st IterationStat) { warmStream = append(warmStream, st) }
					got, err := Solve(g, ProblemSpec{Problem: problem, Budget: k, Sampling: eng.sampling, Config: warm})
					if err != nil {
						t.Fatalf("%s k=%d warm: %v", label, k, err)
					}
					if got.Evaluations != 0 {
						t.Fatalf("%s k=%d: replay spent %d evaluations", label, k, got.Evaluations)
					}
					w := *want
					w.Evaluations = 0
					requireSameResult(t, fmt.Sprintf("%s k=%d", label, k), got, &w)
					requireSameStream(t, fmt.Sprintf("%s k=%d", label, k), warmStream, coldStream, k)
				}
			}
		}
	}
}

// TestMemoUnitBuildsNothing: a unit whose memoized prefix covers its
// largest budget is answered from the memo alone. It never asks
// BatchOptions.Estimator, and what a covered Solve allocates depends on
// neither the sample size nor the graph size. (SolveBatch's P4 share key
// formats through fmt's sync.Pool, which the race detector randomly
// empties, so the count is taken on Solve.)
func TestMemoUnitBuildsNothing(t *testing.T) {
	const memoK = 10
	var allocs []float64
	for _, n := range []int{200, 2000} {
		gcfg := generate.DefaultTwoBlock(4)
		gcfg.N, gcfg.PHom, gcfg.PHet = n, 8/float64(n), 0.4/float64(n) // same mean degree at both sizes
		g, err := generate.TwoBlock(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, worlds := range []int{50, 400} {
			label := fmt.Sprintf("n=%d worlds=%d", n, worlds)
			base := DefaultConfig(2)
			base.Tau = 5
			smp := Sampling{Samples: worlds}
			base.ReportOnSample = true
			sample := cascade.SampleWorlds(g, cascade.IC, worlds, base.Seed, 0)
			build := func(int, ProblemSpec) (estimator.Estimator, error) {
				return influence.NewEvaluator(g, sample, base.Tau)
			}
			capture := base
			capture.CaptureWarm = true
			if capture.Estimator, err = build(0, ProblemSpec{}); err != nil {
				t.Fatal(err)
			}
			memo, err := Solve(g, ProblemSpec{Problem: P4, Budget: memoK, Sampling: smp, Config: capture})
			if err != nil {
				t.Fatal(err)
			}
			memoHook := func(int, ProblemSpec) *WarmStart { return memo.Warm }
			specs := []ProblemSpec{
				{Problem: P4, Budget: 6, Sampling: smp, Config: base},
				{Problem: P4, Budget: memoK, Sampling: smp, Config: base},
			}
			outs, _ := SolveBatch(g, specs, &BatchOptions{
				Estimator: func(int, ProblemSpec) (estimator.Estimator, error) {
					t.Fatalf("%s: a memo-covered unit asked for an estimator", label)
					return nil, nil
				},
				Warm: memoHook,
			})
			for i, spec := range specs {
				if outs[i].Err != nil {
					t.Fatalf("%s budget %d: %v", label, spec.Budget, outs[i].Err)
				}
				if spec.Estimator, err = build(0, spec); err != nil {
					t.Fatal(err)
				}
				want, err := Solve(g, spec)
				if err != nil {
					t.Fatal(err)
				}
				want.Evaluations = 0
				requireSameResult(t, label, outs[i].Result, want)
			}
			// Solve samples its own worlds unless the memo answers it.
			replay := specs[0]
			replay.Warm = memo.Warm
			allocs = append(allocs, testing.AllocsPerRun(20, func() {
				if _, err := Solve(g, replay); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	for _, a := range allocs[1:] {
		if a != allocs[0] {
			t.Fatalf("memo-covered replay allocations vary with the sample or graph size: %v (n=200/50, 200/400, 2000/50, 2000/400 worlds)", allocs)
		}
	}
}

// TestWarmMemoSharedSafely: one captured memo serves concurrent solves —
// two extensions past it and a replay inside it — and none of them writes
// into it. Run under -race; the memo's seeds and recorded rows must read
// exactly as they did before.
func TestWarmMemoSharedSafely(t *testing.T) {
	g := warmTestGraph(t)
	cfg := DefaultConfig(5)
	cfg.Tau = 5
	smp := Sampling{Samples: 80}
	cfg.ReportOnSample = true
	capture := cfg
	capture.CaptureWarm = true
	memo, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: smp, Config: capture})
	if err != nil {
		t.Fatal(err)
	}
	w := memo.Warm
	seeds, utils, norms := slices.Clone(w.Seeds), slices.Clone(w.utils), slices.Clone(w.norms)

	budgets := []int{9, 9, 3}
	results := make([]*Result, len(budgets))
	errs := make([]error, len(budgets))
	var wg sync.WaitGroup
	for i, b := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm := cfg
			warm.Warm = w
			warm.Trace = true
			results[i], errs[i] = Solve(g, ProblemSpec{Problem: P4, Budget: b, Sampling: smp, Config: warm})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	requireSameResult(t, "concurrent extensions", results[1], results[0])
	if !reflect.DeepEqual(w.Seeds, seeds) || !reflect.DeepEqual(w.utils, utils) || !reflect.DeepEqual(w.norms, norms) {
		t.Fatal("a solve wrote into the memo it shared")
	}
}
