package influence

import (
	"math"
	"testing"
	"testing/quick"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

func newDelayedEval(t *testing.T, g *graph.Graph, tau int32, r int, m float64, seed int64) *Evaluator {
	t.Helper()
	worlds := cascade.SampleDelayedWorlds(g, cascade.GeometricDelay{M: m}, r, seed, 0)
	e, err := NewDelayedEvaluator(g, worlds, tau)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDelayedEvaluatorValidation(t *testing.T) {
	g := randomGrouped(1, 10, 2, 0.2, 0.5)
	if _, err := NewDelayedEvaluator(g, nil, 3); err == nil {
		t.Fatal("no worlds accepted")
	}
	worlds := cascade.SampleDelayedWorlds(g, cascade.UnitDelay{}, 2, 1, 0)
	if _, err := NewDelayedEvaluator(g, worlds, -1); err == nil {
		t.Fatal("negative tau accepted")
	}
	other := randomGrouped(2, 12, 2, 0.2, 0.5)
	otherWorlds := cascade.SampleDelayedWorlds(other, cascade.UnitDelay{}, 2, 1, 0)
	if _, err := NewDelayedEvaluator(g, otherWorlds, 3); err == nil {
		t.Fatal("mismatched world accepted")
	}
}

func TestDelayedUnitMatchesClassic(t *testing.T) {
	// With unit delays, the delayed evaluator must agree exactly with the
	// classic evaluator on the same seed (same world sampling stream: both
	// flip one Bernoulli per edge in the same order).
	g := randomGrouped(3, 25, 2, 0.12, 0.5)
	const tau, r, seed = 4, 30, 7

	classic := newEval(t, g, tau, r, seed)
	worlds := cascade.SampleDelayedWorlds(g, cascade.UnitDelay{}, r, seed, 0)
	delayed, err := NewDelayedEvaluator(g, worlds, tau)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	for step := 0; step < 5; step++ {
		v := graph.NodeID(rng.Intn(g.N()))
		gc := classic.Gain(v)
		gd := delayed.Gain(v)
		if math.Abs(gc-gd) > 1e-9 {
			t.Fatalf("step %d: classic gain %v vs delayed %v", step, gc, gd)
		}
		classic.Add(v)
		delayed.Add(v)
	}
	a, b := classic.GroupUtilities(), delayed.GroupUtilities()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("group %d: classic %v vs delayed %v", i, a[i], b[i])
		}
	}
}

func TestDelayedGainMatchesAddDelta(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGrouped(seed, 20, 2, 0.15, 0.5)
		e := newDelayedEval(t, g, 6, 12, 0.5, seed+1)
		rng := xrand.New(seed + 2)
		for step := 0; step < 4; step++ {
			v := graph.NodeID(rng.Intn(g.N()))
			gain := e.Gain(v)
			before := e.TotalUtility()
			e.Add(v)
			if math.Abs((e.TotalUtility()-before)-gain) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayedSubmodularity(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGrouped(seed, 16, 2, 0.18, 0.5)
		worlds := cascade.SampleDelayedWorlds(g, cascade.GeometricDelay{M: 0.4}, 10, seed, 0)
		rng := xrand.New(seed + 3)
		v := graph.NodeID(rng.Intn(g.N()))
		a := graph.NodeID(rng.Intn(g.N()))
		base := graph.NodeID(rng.Intn(g.N()))

		small, _ := NewDelayedEvaluator(g, worlds, 5)
		small.Add(base)
		gainSmall := small.Gain(v)

		big, _ := NewDelayedEvaluator(g, worlds, 5)
		big.Add(base)
		big.Add(a)
		gainBig := big.Gain(v)
		return gainSmall >= gainBig-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayedSlowerThanClassicUnderDeadline(t *testing.T) {
	// Meeting delays must reduce within-deadline utility relative to unit
	// delays on the same structure.
	g := randomGrouped(5, 60, 2, 0.05, 0.6)
	const tau = 4
	unit := newEval(t, g, tau, 200, 9)
	delayed := newDelayedEval(t, g, tau, 200, 0.3, 9)
	unit.Add(0)
	delayed.Add(0)
	if delayed.TotalUtility() >= unit.TotalUtility() {
		t.Fatalf("delayed %v not slower than unit %v", delayed.TotalUtility(), unit.TotalUtility())
	}
}

func TestDelayedResetAndInitialGains(t *testing.T) {
	g := randomGrouped(6, 30, 3, 0.1, 0.4)
	e := newDelayedEval(t, g, 5, 15, 0.5, 3)
	e.Add(1)
	gainBefore := e.Gain(5)
	e.Add(5)
	e.Reset()
	if e.TotalUtility() != 0 || len(e.Seeds()) != 0 {
		t.Fatal("reset incomplete")
	}
	e.Add(1)
	if g2 := e.Gain(5); math.Abs(g2-gainBefore) > 1e-9 {
		t.Fatalf("post-reset gain %v != %v", g2, gainBefore)
	}
	var cands []graph.NodeID
	for len(cands) < 200 {
		cands = append(cands, 0, 2, 9, 20)
	}
	par := e.InitialGains(cands, 2)
	if len(par) != len(cands)*g.NumGroups() {
		t.Fatalf("%d gains for %d candidates × %d groups", len(par), len(cands), g.NumGroups())
	}
	for i, v := range cands {
		seq := e.GainPerGroup(v)
		for grp := range seq {
			if par[i*len(seq)+grp] != seq[grp] {
				t.Fatalf("candidate %d group %d mismatch", v, grp)
			}
		}
	}
}

func TestEstimateDelayedAgainstDirectICM(t *testing.T) {
	g := randomGrouped(7, 30, 2, 0.12, 0.4)
	seeds := []graph.NodeID{0, 3}
	const tau, m = 5, 0.5
	const reps = 4000

	e := newDelayedEval(t, g, tau, reps, m, 13)
	for _, v := range seeds {
		e.Add(v)
	}
	est := e.GroupUtilities()
	total := est[0] + est[1]

	rng := xrand.New(17)
	direct := 0.0
	for r := 0; r < reps; r++ {
		for _, tv := range cascade.RunICM(g, seeds, tau, m, rng) {
			if tv >= 0 && tv <= tau {
				direct++
			}
		}
	}
	direct /= reps
	if math.Abs(total-direct) > 0.35 {
		t.Fatalf("delayed estimate %v vs direct IC-M %v", total, direct)
	}
	if _, err := NewDelayedEvaluator(g, cascade.SampleDelayedWorlds(g, cascade.UnitDelay{}, 0, 1, 0), tau); err == nil {
		t.Fatal("zero samples accepted")
	}
}
