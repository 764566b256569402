package influence

import (
	"math"
	"testing"
	"testing/quick"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

func newDiscEval(t *testing.T, g *graph.Graph, tau int32, gamma float64, r int, seed int64) *Evaluator {
	t.Helper()
	worlds := cascade.SampleWorlds(g, cascade.IC, r, seed, 0)
	e, err := NewDiscountedEvaluator(g, worlds, tau, gamma)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDiscountedValidation(t *testing.T) {
	g := randomGrouped(1, 10, 2, 0.2, 0.5)
	worlds := cascade.SampleWorlds(g, cascade.IC, 2, 1, 0)
	for _, gamma := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewDiscountedEvaluator(g, worlds, 3, gamma); err == nil {
			t.Fatalf("gamma=%v accepted", gamma)
		}
	}
	if _, err := NewDiscountedEvaluator(g, nil, 3, 0.9); err == nil {
		t.Fatal("no worlds accepted")
	}
	if _, err := NewDiscountedEvaluator(g, worlds, -1, 0.9); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestDiscountedPathExact(t *testing.T) {
	// Deterministic path, seed at head: utility = Σ_{d=0..τ} γ^d exactly.
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	const gamma = 0.5
	for _, tau := range []int32{0, 1, 3, 9} {
		e := newDiscEval(t, g, tau, gamma, 3, 1)
		e.Add(0)
		want := 0.0
		for d := int32(0); d <= tau; d++ {
			want += math.Pow(gamma, float64(d))
		}
		if got := e.TotalUtility(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("tau=%d: %v, want %v", tau, got, want)
		}
	}
}

func TestDiscountedSeedWorthOne(t *testing.T) {
	g := randomGrouped(2, 15, 2, 0.1, 0.3)
	e := newDiscEval(t, g, 0, 0.8, 10, 2)
	e.Add(4)
	if got := e.TotalUtility(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("tau=0 discounted utility %v, want 1 (the seed itself)", got)
	}
}

func TestDiscountedGainMatchesAddDelta(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGrouped(seed, 22, 3, 0.12, 0.5)
		e := newDiscEval(t, g, 5, 0.7, 12, seed+1)
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

func TestDiscountedImprovementOfReachedNodeHasValue(t *testing.T) {
	// Path 0->1->2; seeding 2 when it is already reached at distance 2
	// still gains (γ^0 − γ^2) — the crucial difference from the 0/1 model.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.MustBuild()
	e := newDiscEval(t, g, 10, 0.5, 2, 1)
	e.Add(0)
	gain := e.Gain(2)
	want := 1 - 0.25 // γ^0 − γ^2
	if math.Abs(gain-want) > 1e-9 {
		t.Fatalf("gain = %v, want %v", gain, want)
	}
	// The 0/1 evaluator sees no value in the same move.
	classic := newEval(t, g, 10, 2, 1)
	classic.Add(0)
	if classic.Gain(2) != 0 {
		t.Fatalf("classic gain should be 0, got %v", classic.Gain(2))
	}
}

func TestDiscountedSubmodularity(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGrouped(seed, 16, 2, 0.18, 0.5)
		worlds := cascade.SampleWorlds(g, cascade.IC, 10, seed, 0)
		rng := xrand.New(seed + 3)
		v := graph.NodeID(rng.Intn(g.N()))
		a := graph.NodeID(rng.Intn(g.N()))
		base := graph.NodeID(rng.Intn(g.N()))

		small, _ := NewDiscountedEvaluator(g, worlds, 5, 0.6)
		small.Add(base)
		gainSmall := small.Gain(v)

		big, _ := NewDiscountedEvaluator(g, worlds, 5, 0.6)
		big.Add(base)
		big.Add(a)
		gainBig := big.Gain(v)
		return gainSmall >= gainBig-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscountedMonotonicity(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGrouped(seed, 18, 2, 0.15, 0.5)
		e := newDiscEval(t, g, 6, 0.8, 8, seed)
		rng := xrand.New(seed + 7)
		prev := 0.0
		for step := 0; step < 5; step++ {
			e.Add(graph.NodeID(rng.Intn(g.N())))
			cur := e.TotalUtility()
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscountedBelowUndiscounted(t *testing.T) {
	// γ < 1 means discounted utility < 0/1 utility for the same seeds.
	g := randomGrouped(9, 50, 2, 0.06, 0.4)
	const tau = 6
	worlds := cascade.SampleWorlds(g, cascade.IC, 100, 4, 0)
	plain, _ := NewEvaluator(g, worlds, tau)
	disc, _ := NewDiscountedEvaluator(g, worlds, tau, 0.6)
	for _, v := range []graph.NodeID{0, 10, 25} {
		plain.Add(v)
		disc.Add(v)
	}
	if disc.TotalUtility() >= plain.TotalUtility() {
		t.Fatalf("discounted %v not below plain %v", disc.TotalUtility(), plain.TotalUtility())
	}
	// But at least the seeds' own γ^0 = 1 each.
	if disc.TotalUtility() < 3 {
		t.Fatalf("discounted %v below seed mass", disc.TotalUtility())
	}
}

func TestDiscountedReset(t *testing.T) {
	g := randomGrouped(4, 20, 2, 0.1, 0.5)
	e := newDiscEval(t, g, 4, 0.9, 10, 4)
	e.Add(2)
	gain := e.Gain(7)
	e.Add(7)
	e.Reset()
	if e.TotalUtility() != 0 {
		t.Fatal("reset incomplete")
	}
	e.Add(2)
	if g2 := e.Gain(7); math.Abs(g2-gain) > 1e-9 {
		t.Fatalf("post-reset gain %v != %v", g2, gain)
	}
}

func TestEstimateDiscounted(t *testing.T) {
	g := randomGrouped(6, 25, 2, 0.1, 0.4)
	e := newDiscEval(t, g, 4, 0.7, 100, 5)
	for _, v := range []graph.NodeID{0, 3} {
		e.Add(v)
	}
	if util := e.GroupUtilities(); len(util) != 2 || util[0]+util[1] < 2 {
		t.Fatalf("discounted estimate %v", util)
	}
	if _, err := NewDiscountedEvaluator(g, cascade.SampleWorlds(g, cascade.IC, 0, 1, 0), 4, 0.7); err == nil {
		t.Fatal("zero samples accepted")
	}
}
