package fairim

import (
	"fmt"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/graph"
	"fairtcim/internal/ris"
)

// requireSameResult asserts two Results are bit-identical in every
// wire-visible field — the batch planner's contract.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got %v, want %v)", label, got, want)
	}
	if got.Problem != want.Problem {
		t.Fatalf("%s: problem %q != %q", label, got.Problem, want.Problem)
	}
	if len(got.Seeds) != len(want.Seeds) {
		t.Fatalf("%s: %d seeds != %d: %v vs %v", label, len(got.Seeds), len(want.Seeds), got.Seeds, want.Seeds)
	}
	for i := range got.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("%s: seeds diverge at %d: %v vs %v", label, i, got.Seeds, want.Seeds)
		}
	}
	if got.Total != want.Total || got.NormTotal != want.NormTotal || got.Disparity != want.Disparity {
		t.Fatalf("%s: total/normTotal/disparity (%v,%v,%v) != (%v,%v,%v)",
			label, got.Total, got.NormTotal, got.Disparity, want.Total, want.NormTotal, want.Disparity)
	}
	for i := range want.PerGroup {
		if got.PerGroup[i] != want.PerGroup[i] || got.NormPerGroup[i] != want.NormPerGroup[i] {
			t.Fatalf("%s: group %d utilities differ: %v vs %v", label, i, got.PerGroup, want.PerGroup)
		}
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("%s: evaluations %d != %d", label, got.Evaluations, want.Evaluations)
	}
	if got.Samples != want.Samples || got.RISPerGroup != want.RISPerGroup {
		t.Fatalf("%s: samples/ris (%d,%d) != (%d,%d)", label, got.Samples, got.RISPerGroup, want.Samples, want.RISPerGroup)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d != %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		g, w := got.Trace[i], want.Trace[i]
		if g.Seed != w.Seed || g.Objective != w.Objective || g.Total != w.Total {
			t.Fatalf("%s: trace entry %d differs: %+v vs %+v", label, i, g, w)
		}
		for j := range w.NormGroup {
			if g.NormGroup[j] != w.NormGroup[j] {
				t.Fatalf("%s: trace entry %d group %d differs", label, i, j)
			}
		}
	}
}

// TestSolveBatchParityMatrix is the planner's load-bearing guarantee:
// across P1/P2/P4/P6 × {forward-MC, RIS} × mixed budgets/quotas × both
// report modes, every batched outcome is bit-identical to its
// sequential Solve — including the Evaluations count the member's own
// run would have spent.
func TestSolveBatchParityMatrix(t *testing.T) {
	g := smallSBM(t, 7)
	engines := []struct {
		name string
		smp  Sampling
		cfg  func() Config
	}{
		{"forward-mc", quick, func() Config {
			cfg := quickCfg(5)
			return cfg
		}},
		{"ris", Sampling{Samples: quick.Samples, RISPerGroup: 400}, func() Config {
			cfg := quickCfg(5)
			cfg.Engine = EngineRIS
			return cfg
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			base := eng.cfg()
			traced := base
			traced.Trace = true
			onSample := base
			onSample.ReportOnSample = true
			specs := []ProblemSpec{
				{Problem: P1, Budget: 2, Config: base},
				{Problem: P1, Budget: 6, Config: traced},
				{Problem: P1, Budget: 4, Config: onSample},
				{Problem: P4, Budget: 3, Config: base},
				{Problem: P4, Budget: 5, Config: base},
				{Problem: P2, Quota: 0.3, Config: base},
				{Problem: P2, Quota: 0.3, Config: onSample},
				{Problem: P6, Quota: 0.25, Config: base},
				{Problem: P6, Quota: 0.25, Config: traced},
				{Problem: P2, Quota: 0.5, Config: base}, // different quota: own group
			}
			for i := range specs {
				specs[i].Sampling = eng.smp
			}
			outcomes, report := SolveBatch(g, specs, nil)
			if len(outcomes) != len(specs) {
				t.Fatalf("%d outcomes for %d specs", len(outcomes), len(specs))
			}
			// P1 ×3, P4 ×2, P2@0.3 ×2, P6@0.25 ×2 coalesce; P2@0.5 is alone.
			if report.Groups != 4 || report.Singletons != 1 || report.Coalesced != 9 {
				t.Fatalf("report = %+v, want 4 groups / 1 singleton / 9 coalesced", report)
			}
			for i, spec := range specs {
				if outcomes[i].Err != nil {
					t.Fatalf("spec %d: %v", i, outcomes[i].Err)
				}
				want, err := Solve(g, spec)
				if err != nil {
					t.Fatalf("sequential spec %d: %v", i, err)
				}
				requireSameResult(t, spec.Problem.String(), outcomes[i].Result, want)
			}
		})
	}
}

// TestSolveBatchWarmPrefix checks batches sharing a prefix-memo entry:
// a group primed through BatchOptions.Warm reproduces what each
// sequential solve primed with the same WarmStart returns — covered
// budgets are zero-evaluation replays, larger ones resume the heap.
func TestSolveBatchWarmPrefix(t *testing.T) {
	g := smallSBM(t, 3)
	base := quickCfg(9)
	base.Engine = EngineRIS
	smp := Sampling{Samples: quick.Samples, RISPerGroup: 400}

	capture := base
	capture.CaptureWarm = true
	seedRun, err := Solve(g, ProblemSpec{Problem: P4, Budget: 4, Sampling: smp, Config: capture})
	if err != nil {
		t.Fatal(err)
	}
	if seedRun.Warm == nil {
		t.Fatal("no warm state captured")
	}

	budgets := []int{2, 4, 7}
	specs := make([]ProblemSpec, len(budgets))
	for i, b := range budgets {
		specs[i] = ProblemSpec{Problem: P4, Budget: b, Sampling: smp, Config: base}
	}
	warmCalls := 0
	var captured *WarmStart
	outcomes, report := SolveBatch(g, specs, &BatchOptions{
		Warm: func(gid int, rep ProblemSpec) *WarmStart {
			warmCalls++
			if rep.Budget != 7 {
				t.Fatalf("warm hook saw representative budget %d, want the max 7", rep.Budget)
			}
			return seedRun.Warm
		},
		OnWarm: func(gid int, rep ProblemSpec, w *WarmStart) { captured = w },
	})
	if report.Groups != 1 || report.Coalesced != 3 || warmCalls != 1 {
		t.Fatalf("report %+v warmCalls %d, want one group of 3 primed once", report, warmCalls)
	}
	for i, b := range budgets {
		warmSpec := specs[i]
		warmSpec.Config.Warm = seedRun.Warm
		want, err := Solve(g, warmSpec)
		if err != nil {
			t.Fatal(err)
		}
		if outcomes[i].Err != nil {
			t.Fatalf("budget %d: %v", b, outcomes[i].Err)
		}
		requireSameResult(t, "warm", outcomes[i].Result, want)
		if b <= 4 && outcomes[i].Result.Evaluations != 0 {
			t.Fatalf("budget %d inside the warm prefix spent %d evaluations", b, outcomes[i].Result.Evaluations)
		}
	}
	if captured == nil || len(captured.Seeds) != 7 {
		t.Fatalf("OnWarm captured %v, want the full 7-seed state", captured)
	}
}

// TestSolveBatchGrouping pins the planner's compatibility rules: mixed
// engines never share, accuracy targets share only at equal sizing
// budgets, non-shareable specs run alone with output identical to the
// sequential Solve — their OnIteration stream included — and invalid
// specs fail alone.
func TestSolveBatchGrouping(t *testing.T) {
	g := smallSBM(t, 4)
	fw := quickCfg(2)
	rs := quickCfg(2)
	rs.Engine = EngineRIS
	rsSmp := Sampling{Samples: quick.Samples, RISPerGroup: 300}
	plain := fw
	plain.PlainGreedy = true
	restricted := fw
	restricted.Candidates = []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	weighted := fw
	weighted.GroupWeights = NormalizedGroupWeights(g)
	discounted := fw
	discounted.Discount = 0.8
	delayed := fw
	delayed.Delay = cascade.GeometricDelay{M: 0.5}
	reported := fw
	reported.ReportOnSample = true
	reported.Trace = true

	acc := &Accuracy{Epsilon: 0.4, Delta: 0.2}
	specs := []ProblemSpec{
		{Problem: P1, Budget: 3, Sampling: quick, Config: fw},                   // 0: singleton (no partner)
		{Problem: P1, Budget: 3, Sampling: rsSmp, Config: rs},                   // 1: other engine, own unit
		{Problem: P1, Budget: 2, Sampling: quick, Config: plain},                // 2: plain greedy, alone
		{Problem: P1, Budget: 2, Sampling: quick, Config: restricted},           // 3: candidate-restricted, alone
		{Problem: P4, Budget: 3, Sampling: Sampling{Accuracy: acc}, Config: fw}, // 4: accuracy pair...
		{Problem: P4, Budget: 3, Sampling: Sampling{Accuracy: acc}, Config: fw}, // 5: ...same sizing budget, shares
		{Problem: P4, Budget: 5, Sampling: Sampling{Accuracy: acc}, Config: fw}, // 6: other sizing budget, alone
		{Problem: P1, Budget: 0, Sampling: quick, Config: fw},                   // 7: invalid budget
		{Problem: 0, Budget: 3, Sampling: quick, Config: fw},                    // 8: invalid problem
		// Lone specs streaming their picks (OnIteration is set below).
		{Problem: P4, Budget: 3, Sampling: quick, Config: weighted},   // 9: group weights
		{Problem: P1, Budget: 3, Sampling: quick, Config: discounted}, // 10: discounted diffusion
		{Problem: P1, Budget: 3, Sampling: quick, Config: delayed},    // 11: delayed diffusion
		{Problem: P2, Quota: 0.3, Sampling: quick, Config: plain},     // 12: plain-greedy cover
		{Problem: P6, Quota: 0.25, Sampling: quick, Config: plain},    // 13: plain-greedy fair cover
		{Problem: P4, Budget: 4, Sampling: quick, Config: reported},   // 14: on-sample report with trace
	}
	const streamed = 9
	streams := make([][]IterationStat, len(specs))
	for i := streamed; i < len(specs); i++ {
		specs[i].OnIteration = func(st IterationStat) { streams[i] = append(streams[i], st) }
	}
	outcomes, report := SolveBatch(g, specs, nil)
	if report.Groups != 1 || report.Coalesced != 2 {
		t.Fatalf("report %+v, want exactly the accuracy pair coalesced", report)
	}
	if report.Singletons != 11 {
		t.Fatalf("report %+v, want 11 singletons", report)
	}
	if report.GroupOf[4] != report.GroupOf[5] || report.GroupOf[4] == report.GroupOf[6] {
		t.Fatalf("accuracy grouping wrong: %v", report.GroupOf)
	}
	if report.GroupOf[7] != -1 || report.GroupOf[8] != -1 {
		t.Fatalf("invalid specs not rejected: %v", report.GroupOf)
	}
	if outcomes[7].Err == nil || outcomes[8].Err == nil {
		t.Fatal("invalid specs did not fail")
	}
	for i, spec := range specs {
		if i == 7 || i == 8 {
			continue
		}
		if outcomes[i].Err != nil {
			t.Fatalf("spec %d: %v", i, outcomes[i].Err)
		}
		var solo []IterationStat
		if spec.OnIteration != nil {
			spec.OnIteration = func(st IterationStat) { solo = append(solo, st) }
		}
		want, err := Solve(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "grouping", outcomes[i].Result, want)
		if i >= streamed {
			requireSameStream(t, fmt.Sprintf("spec %d", i), streams[i], solo, len(want.Seeds))
		}
	}
}

// requireSameStream asserts two OnIteration streams are bit-identical and
// carry one snapshot per pick.
func requireSameStream(t *testing.T, label string, got, want []IterationStat, picks int) {
	t.Helper()
	if len(got) != picks || len(want) != picks {
		t.Fatalf("%s: streamed %d picks, Solve %d, want %d", label, len(got), len(want), picks)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seed != w.Seed || g.Objective != w.Objective || g.Total != w.Total {
			t.Fatalf("%s: stream entry %d differs: %+v vs %+v", label, i, g, w)
		}
		for j := range w.NormGroup {
			if g.NormGroup[j] != w.NormGroup[j] {
				t.Fatalf("%s: stream entry %d group %d differs", label, i, j)
			}
		}
	}
}

// TestSolveBatchSingletonHooks: a spec that cannot share a run (it
// streams its picks) still runs on the hooks — a warm estimator, a
// memoized 3-seed prefix it resumes from, and the capture of its final
// state — exactly as Solve would with the same estimator and warm start
// injected.
func TestSolveBatchSingletonHooks(t *testing.T) {
	g := warmTestGraph(t)
	cfg := DefaultConfig(5)
	cfg.Tau = 5
	cfg.Engine = EngineRIS
	smp := Sampling{RISPerGroup: 300}
	cfg.ReportOnSample = true
	col, err := ris.Sample(g, cfg.Tau, []int{300, 300}, cfg.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	capture := cfg
	capture.Estimator = ris.NewEstimator(col)
	capture.CaptureWarm = true
	prefix, err := Solve(g, ProblemSpec{Problem: P4, Budget: 3, Sampling: smp, Config: capture})
	if err != nil {
		t.Fatal(err)
	}
	if prefix.Warm == nil || len(prefix.Warm.Seeds) != 3 {
		t.Fatalf("no 3-seed warm state captured: %+v", prefix.Warm)
	}

	var picks []IterationStat
	spec := ProblemSpec{Problem: P4, Budget: 5, Sampling: smp, Config: cfg}
	spec.OnIteration = func(st IterationStat) { picks = append(picks, st) }
	estimatorCalls := 0
	var captured *WarmStart
	outcomes, report := SolveBatch(g, []ProblemSpec{spec}, &BatchOptions{
		Estimator: func(gid int, rep ProblemSpec) (estimator.Estimator, error) {
			estimatorCalls++
			return ris.NewEstimator(col), nil
		},
		Warm:   func(gid int, rep ProblemSpec) *WarmStart { return prefix.Warm },
		OnWarm: func(gid int, rep ProblemSpec, w *WarmStart) { captured = w },
	})
	if report.Singletons != 1 || outcomes[0].Err != nil {
		t.Fatalf("report %+v, err %v", report, outcomes[0].Err)
	}
	if estimatorCalls != 1 {
		t.Fatalf("estimator hook ran %d times, want 1", estimatorCalls)
	}
	if captured == nil || len(captured.Seeds) != 5 {
		t.Fatalf("OnWarm captured %+v, want the 5-seed state", captured)
	}

	var solo []IterationStat
	ref := spec
	ref.Estimator = ris.NewEstimator(col)
	ref.Warm = prefix.Warm
	ref.OnIteration = func(st IterationStat) { solo = append(solo, st) }
	want, err := Solve(g, ref)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "singleton hooks", outcomes[0].Result, want)
	requireSameStream(t, "singleton hooks", picks, solo, 5)
}

// TestSolveBatchSaturatedMember: when the objective saturates before the
// representative's budget, a member whose budget equals the pick count
// stops at its last pick — it must not be charged the representative's
// trailing no-gain evaluations.
func TestSolveBatchSaturatedMember(t *testing.T) {
	// A hub that reaches every leaf with certainty: once it is picked no
	// other node adds anything.
	b := graph.NewBuilder(5)
	for v := 1; v < 5; v++ {
		b.AddEdge(0, graph.NodeID(v), 1)
	}
	b.SetGroups([]int{0, 0, 0, 1, 1})
	g := b.MustBuild()
	specs := []ProblemSpec{
		{Problem: P1, Budget: 1, Sampling: quick, Config: quickCfg(1)},
		{Problem: P1, Budget: 3, Sampling: quick, Config: quickCfg(1)},
	}
	outcomes, report := SolveBatch(g, specs, nil)
	if report.Groups != 1 || report.Coalesced != 2 {
		t.Fatalf("report %+v, want both budgets coalesced", report)
	}
	for i, spec := range specs {
		want, err := Solve(g, spec)
		if err != nil || outcomes[i].Err != nil {
			t.Fatalf("spec %d: %v / %v", i, err, outcomes[i].Err)
		}
		requireSameResult(t, fmt.Sprintf("budget %d", spec.Budget), outcomes[i].Result, want)
	}
}

// TestSolveBatchSeedsNotAliased checks peeled members own their seed
// slices: mutating one member's seeds must not corrupt another's.
func TestSolveBatchSeedsNotAliased(t *testing.T) {
	g := smallSBM(t, 6)
	base := quickCfg(11)
	specs := []ProblemSpec{
		{Problem: P1, Budget: 2, Sampling: quick, Config: base},
		{Problem: P1, Budget: 4, Sampling: quick, Config: base},
	}
	outcomes, _ := SolveBatch(g, specs, nil)
	for i := range outcomes {
		if outcomes[i].Err != nil {
			t.Fatal(outcomes[i].Err)
		}
	}
	keep := append([]graph.NodeID(nil), outcomes[1].Result.Seeds...)
	for i := range outcomes[0].Result.Seeds {
		outcomes[0].Result.Seeds[i] = -1
	}
	for i, v := range outcomes[1].Result.Seeds {
		if v != keep[i] {
			t.Fatal("peeled seed slices alias the shared run's backing array")
		}
	}
}
