package fairim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

func TestProblemByName(t *testing.T) {
	for name, want := range map[string]Problem{
		"p1": P1, "P2": P2, "p4": P4, "P6": P6,
	} {
		got, err := ProblemByName(name)
		if err != nil || got != want {
			t.Errorf("ProblemByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ProblemByName("p3"); err == nil {
		t.Error("ProblemByName accepted p3")
	}
	if P1.String() != "P1" || P6.String() != "P6" {
		t.Errorf("String(): %s %s", P1, P6)
	}
	if !P1.IsBudget() || !P4.IsBudget() || P2.IsBudget() || P6.IsBudget() {
		t.Error("IsBudget misclassifies")
	}
}

func TestSolveRejectsBadSpecs(t *testing.T) {
	g := smallSBM(t, 1)
	cases := map[string]ProblemSpec{
		"zero problem":     {Budget: 3, Sampling: quick, Config: quickCfg(1)},
		"zero budget":      {Problem: P1, Sampling: quick, Config: quickCfg(1)},
		"zero quota":       {Problem: P6, Sampling: quick, Config: quickCfg(1)},
		"quota above one":  {Problem: P2, Quota: 1.5, Sampling: quick, Config: quickCfg(1)},
		"negative samples": {Problem: P1, Budget: 3, Sampling: Sampling{Samples: -5}, Config: quickCfg(1)},
		"explicit and accuracy": {Problem: P1, Budget: 3,
			Sampling: Sampling{Samples: 50, Accuracy: &Accuracy{Epsilon: 0.2, Delta: 0.1}}, Config: quickCfg(1)},
		"bad epsilon": {Problem: P1, Budget: 3,
			Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0, Delta: 0.1}}, Config: quickCfg(1)},
		"bad delta": {Problem: P1, Budget: 3,
			Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0.2, Delta: 1}}, Config: quickCfg(1)},
	}
	for name, spec := range cases {
		if _, err := Solve(g, spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSolveSamplingCounts: the Sampling block alone sizes the
// optimization sample. An explicit count is what the solve draws, the zero
// spec falls back to DefaultSamples, and an unset RR pool holds 20 sets
// per world.
func TestSolveSamplingCounts(t *testing.T) {
	g := generate.TwoStars()
	cfg := DefaultConfig(1)
	cfg.Tau = 3
	res, err := Solve(g, ProblemSpec{Problem: P1, Budget: 1, Sampling: Sampling{Samples: 77}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 77 {
		t.Errorf("resolved samples %d, want the Sampling count 77", res.Samples)
	}
	res, err = Solve(g, ProblemSpec{Problem: P1, Budget: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != DefaultSamples {
		t.Errorf("resolved samples %d, want default %d", res.Samples, DefaultSamples)
	}
	cfg.Engine = EngineRIS
	res, err = Solve(g, ProblemSpec{Problem: P1, Budget: 1, Sampling: Sampling{Samples: 10}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.RISPerGroup != 200 {
		t.Errorf("resolved pool %d, want 20 RR sets per world = 200", res.RISPerGroup)
	}
}

// TestSolveAccuracyForwardMC: an accuracy target with no explicit budgets
// resolves to the Hoeffding world count and completes the solve.
func TestSolveAccuracyForwardMC(t *testing.T) {
	g := generate.TwoStars()
	cfg := DefaultConfig(1)
	cfg.Tau = 3
	spec := ProblemSpec{
		Problem: P4, Budget: 2,
		Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0.2, Delta: 0.05}},
		Config:   cfg,
	}
	res, err := Solve(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HoeffdingWorlds(0.2, 0.05, 2, g.N(), g.NumGroups())
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != want {
		t.Errorf("resolved samples %d, want Hoeffding %d", res.Samples, want)
	}
	if len(res.Seeds) != 2 {
		t.Errorf("picked %d seeds", len(res.Seeds))
	}
}

// TestSolveAccuracyRIS: under the RIS engine the accuracy target drives
// the geometric-doubling pool sizer, and the resolved pool is reported.
func TestSolveAccuracyRIS(t *testing.T) {
	g := smallSBM(t, 4)
	cfg := DefaultConfig(2)
	cfg.Tau = 5
	cfg.Engine = EngineRIS
	res, err := Solve(g, ProblemSpec{
		Problem: P4, Budget: 3,
		Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0.3, Delta: 0.1}},
		Config:   cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RISPerGroup < 256 {
		t.Errorf("accuracy-derived pool %d below the pilot size", res.RISPerGroup)
	}
	if res.Samples != 0 {
		t.Errorf("RIS solve reports %d forward worlds; none were drawn", res.Samples)
	}
	if len(res.Seeds) != 3 {
		t.Errorf("picked %d seeds", len(res.Seeds))
	}
	// The wrapper path with explicit budgets must report its pool too.
	explicit, err := Solve(g, ProblemSpec{Problem: P4, Budget: 3,
		Sampling: Sampling{RISPerGroup: 4000}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.RISPerGroup != 4000 {
		t.Errorf("explicit pool reported as %d, want 4000", explicit.RISPerGroup)
	}
}

func TestHoeffdingWorlds(t *testing.T) {
	base, err := HoeffdingWorlds(0.2, 0.05, 5, 200, 2)
	if err != nil || base <= 0 {
		t.Fatalf("base: %d, %v", base, err)
	}
	tighter, err := HoeffdingWorlds(0.1, 0.05, 5, 200, 2)
	if err != nil || tighter <= base {
		t.Fatalf("halving epsilon should grow worlds: %d vs %d (%v)", tighter, base, err)
	}
	if _, err := HoeffdingWorlds(0.001, 0.0001, 400, 1e6, 5); err == nil {
		t.Error("absurd accuracy target not rejected by the cap")
	}
	if _, err := HoeffdingWorlds(0, 0.05, 5, 200, 2); err == nil {
		t.Error("epsilon 0 accepted")
	}
}

// TestOnIterationStreams pins the streaming seam the job-trace API relies
// on: the callback fires once per greedy pick, in pick order, with the
// same snapshots Trace records.
func TestOnIterationStreams(t *testing.T) {
	g := smallSBM(t, 5)
	cfg := quickCfg(6)
	cfg.Trace = true
	var streamed []IterationStat
	cfg.OnIteration = func(st IterationStat) { streamed = append(streamed, st) }
	res, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: quick, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Seeds) {
		t.Fatalf("callback fired %d times for %d picks", len(streamed), len(res.Seeds))
	}
	if !reflect.DeepEqual(streamed, res.Trace) {
		t.Errorf("streamed stats differ from recorded trace")
	}
	for i, st := range streamed {
		if st.Seed != res.Seeds[i] {
			t.Errorf("pick %d: streamed seed %d, result seed %d", i, st.Seed, res.Seeds[i])
		}
	}
}

// TestEvaluateWithInjectedEstimator covers the serving fast path directly:
// a warm estimator built from a shared sample is injected and must (a) be
// Reset before use, (b) produce exactly the estimates the sample implies,
// and (c) be reported against the sample's size.
func TestEvaluateWithInjectedEstimator(t *testing.T) {
	g := smallSBM(t, 7)
	seeds := []graph.NodeID{0, 1, 5}

	// RIS: one shared Collection, estimator reused across calls.
	col, err := ris.Sample(g, 5, []int{3000, 3000}, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := ris.NewEstimator(col)
	warm.Add(2) // stale state the solve must Reset away
	cfg := DefaultConfig(9)
	cfg.Tau = 5
	cfg.Engine = EngineRIS
	cfg.Estimator = warm
	cfg.ReportOnSample = true
	res, err := Evaluate(g, seeds, ProblemSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	direct := ris.NewEstimator(col)
	for _, v := range seeds {
		direct.Add(v)
	}
	if want := direct.GroupUtilities(); !reflect.DeepEqual(res.PerGroup, want) {
		t.Errorf("injected-estimator utilities %v, want %v", res.PerGroup, want)
	}
	if res.RISPerGroup != 3000 {
		t.Errorf("reported pool %d, want 3000", res.RISPerGroup)
	}

	// Forward MC: same contract over a shared world set.
	worlds := cascade.SampleWorlds(g, cascade.IC, 80, 9, 0)
	ev, err := influence.NewEvaluator(g, worlds, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev.Add(3)
	fcfg := DefaultConfig(9)
	fcfg.Tau = 5
	fcfg.Estimator = ev
	fcfg.ReportOnSample = true
	fres, err := Evaluate(g, seeds, ProblemSpec{Config: fcfg})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := influence.NewEvaluator(g, worlds, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seeds {
		ref.Add(v)
	}
	if want := ref.GroupUtilities(); !reflect.DeepEqual(fres.PerGroup, want) {
		t.Errorf("forward injected utilities %v, want %v", fres.PerGroup, want)
	}
	if fres.Samples != 80 {
		t.Errorf("reported worlds %d, want 80", fres.Samples)
	}

	// A mismatched graph is still rejected through the spec path.
	other := generate.TwoStars()
	if _, err := Evaluate(other, []graph.NodeID{0}, ProblemSpec{Config: cfg}); err == nil {
		t.Error("estimator for the wrong graph accepted")
	}
}

// TestEvaluateAccuracySizesForSingleSet: accuracy-targeted evaluation of a
// fixed seed set needs no union over candidates, so it resolves far fewer
// worlds than a same-target solve.
func TestEvaluateAccuracySizesForSingleSet(t *testing.T) {
	g := smallSBM(t, 8)
	cfg := DefaultConfig(3)
	cfg.Tau = 5
	cfg.ReportOnSample = true
	spec := ProblemSpec{Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0.2, Delta: 0.05}}, Config: cfg}
	res, err := Evaluate(g, []graph.NodeID{0, 4}, spec)
	if err != nil {
		t.Fatal(err)
	}
	solveWorlds, err := HoeffdingWorlds(0.2, 0.05, 10, g.N(), g.NumGroups())
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples >= solveWorlds {
		t.Errorf("eval-only sizing %d not below solve sizing %d", res.Samples, solveWorlds)
	}
	if math.IsNaN(res.Disparity) || res.Total <= 0 {
		t.Errorf("implausible result: %+v", res)
	}

	// Fresh-world evaluation under the RIS engine must not build an
	// accuracy-sized RR pool it never reads: the report comes from (and
	// names) eval worlds only.
	rcfg := DefaultConfig(3)
	rcfg.Tau = 5
	rcfg.Engine = EngineRIS
	fresh, err := Evaluate(g, []graph.NodeID{0, 4},
		ProblemSpec{Sampling: Sampling{Accuracy: &Accuracy{Epsilon: 0.2, Delta: 0.05}}, Config: rcfg})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.RISPerGroup != 0 {
		t.Errorf("fresh-world eval reports an RR pool of %d", fresh.RISPerGroup)
	}
	evalSized, err := EvalWorlds(Accuracy{Epsilon: 0.2, Delta: 0.05}, g.NumGroups())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Samples != evalSized {
		t.Errorf("fresh-world eval reports %d worlds, want the eval-sized count", fresh.Samples)
	}

	// A target beyond the auto-sizing cap errors like HoeffdingWorlds
	// instead of silently clamping the guarantee.
	if _, err := EvalWorlds(Accuracy{Epsilon: 0.0005, Delta: 0.05}, g.NumGroups()); err == nil {
		t.Error("absurd eval accuracy target not rejected by the cap")
	}
}

// TestSolveCancelBetweenPicks pins the cooperative cancellation seam the
// job API relies on: closing Config.Cancel from an OnIteration callback
// (i.e. exactly between greedy picks) aborts the solve with ErrCanceled
// after the current pick, deterministically.
func TestSolveCancelBetweenPicks(t *testing.T) {
	g := smallSBM(t, 5)
	cancel := make(chan struct{})
	cfg := quickCfg(6)
	picks := 0
	cfg.Cancel = cancel
	cfg.OnIteration = func(IterationStat) {
		picks++
		if picks == 2 {
			close(cancel)
		}
	}
	_, err := Solve(g, ProblemSpec{Problem: P4, Budget: 10, Sampling: quick, Config: cfg})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if picks != 2 {
		t.Fatalf("solve ran %d picks after the cancel, want exactly 2", picks)
	}

	// Cover problems abort through the same seam.
	picks = 0
	cancel = make(chan struct{})
	ccfg := quickCfg(6)
	ccfg.Cancel = cancel
	ccfg.OnIteration = func(IterationStat) {
		picks++
		if picks == 1 {
			close(cancel)
		}
	}
	_, err = Solve(g, ProblemSpec{Problem: P6, Quota: 0.9, Sampling: quick, Config: ccfg})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cover: err = %v, want ErrCanceled", err)
	}
	if picks != 1 {
		t.Fatalf("cover ran %d picks after the cancel, want exactly 1", picks)
	}

	// A cancel that fired before the solve starts costs zero picks.
	pre := make(chan struct{})
	close(pre)
	pcfg := quickCfg(6)
	pcfg.Cancel = pre
	pcfg.OnIteration = func(IterationStat) { t.Fatal("pick happened after pre-cancel") }
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: pcfg}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled: err = %v, want ErrCanceled", err)
	}

	// A nil Cancel changes nothing.
	ncfg := quickCfg(6)
	if _, err := Solve(g, ProblemSpec{Problem: P1, Budget: 3, Sampling: quick, Config: ncfg}); err != nil {
		t.Fatalf("nil cancel: %v", err)
	}
}
