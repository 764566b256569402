package ris

import (
	"math"
	"testing"
	"testing/quick"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/xrand"
)

func testGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 150, G: 0.7, PHom: 0.06, PHet: 0.01, PActivate: 0.15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSampleValidation(t *testing.T) {
	g := testGraph(t, 1)
	if _, err := Sample(g, -1, []int{10, 10}, 1, 0); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := Sample(g, 3, []int{10}, 1, 0); err == nil {
		t.Fatal("wrong pool count accepted")
	}
	if _, err := Sample(g, 3, []int{10, 0}, 1, 0); err == nil {
		t.Fatal("zero pool accepted")
	}
	empty := graph.NewBuilder(0).MustBuild()
	if _, err := Sample(empty, 3, nil, 1, 0); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestSampleDeterministicAcrossParallelism(t *testing.T) {
	g := testGraph(t, 2)
	a, err := Sample(g, 4, []int{50, 50}, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(g, 4, []int{50, 50}, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		av, bv := a.refs[a.off[v]:a.off[v+1]], b.refs[b.off[v]:b.off[v+1]]
		if len(av) != len(bv) {
			t.Fatalf("node %d inverted index differs across parallelism", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("node %d ref %d differs across parallelism: %d vs %d", v, i, av[i], bv[i])
			}
		}
	}
}

func TestRRSetContainsRoot(t *testing.T) {
	g := testGraph(t, 3)
	c, err := Sample(g, 0, []int{30, 30}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// tau = 0: every RR set is exactly its root, so total membership count
	// equals total set count.
	total := c.NumRefs()
	if total != c.NumSets() {
		t.Fatalf("tau=0 membership %d, want %d", total, c.NumSets())
	}
}

func TestEstimatorSeedCoversOwnGroup(t *testing.T) {
	// On a complete-coverage instance: star where center reaches all.
	b := graph.NewBuilder(5)
	for v := 1; v < 5; v++ {
		b.AddEdge(0, graph.NodeID(v), 1.0)
	}
	g := b.MustBuild()
	c, err := Sample(g, 1, []int{200}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(c)
	e.Add(0)
	// Center at p=1 within tau=1 influences everyone: estimate = 5.
	if got := e.TotalUtility(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("estimate %v, want 5", got)
	}
}

func TestEstimatorMatchesForwardMC(t *testing.T) {
	// RIS estimates of fτ agree with the forward evaluator within MC error.
	g := testGraph(t, 4)
	seeds := []graph.NodeID{0, 50, 120}
	const tau = 3

	c, err := Sample(g, tau, []int{4000, 4000}, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(c)
	for _, s := range seeds {
		e.Add(s)
	}
	risUtil := e.GroupUtilities()

	fwd, err := influence.EstimateIC(g, seeds, tau, 4000, 12, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fwd {
		if math.Abs(risUtil[i]-fwd[i]) > 0.12*float64(g.GroupSize(i))*0.2+1.0 {
			t.Fatalf("group %d: RIS %v vs forward %v", i, risUtil[i], fwd[i])
		}
	}
}

func TestGainMatchesAddDelta(t *testing.T) {
	check := func(seed int64) bool {
		g := testGraph(t, seed)
		c, err := Sample(g, 3, []int{100, 100}, seed, 0)
		if err != nil {
			return false
		}
		e := NewEstimator(c)
		rng := xrand.New(seed + 1)
		for step := 0; step < 5; step++ {
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
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorReset(t *testing.T) {
	g := testGraph(t, 5)
	c, err := Sample(g, 3, []int{50, 50}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(c)
	e.Add(0)
	g1 := e.Gain(10)
	e.Add(10)
	e.Reset()
	if e.TotalUtility() != 0 || len(e.Seeds()) != 0 {
		t.Fatal("reset incomplete")
	}
	e.Add(0)
	if g2 := e.Gain(10); math.Abs(g1-g2) > 1e-9 {
		t.Fatalf("post-reset gain %v != %v", g2, g1)
	}
}

func TestCollectionAccessors(t *testing.T) {
	g := testGraph(t, 9)
	c, err := Sample(g, 2, []int{10, 20}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph() != g || c.Tau() != 2 || c.NumSets() != 30 {
		t.Fatal("accessors broken")
	}
	ps := c.PoolSizes()
	if ps[0] != 10 || ps[1] != 20 {
		t.Fatalf("PoolSizes = %v", ps)
	}
}
