package ris

import (
	"reflect"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

func TestRequiredPoolSizeMonotone(t *testing.T) {
	// Tighter ε or δ, larger k, or lower coverage must never shrink the
	// demanded pool.
	base := RequiredPoolSize(0.2, 0.05, 5, 200, 2, 0.5)
	if base <= 0 {
		t.Fatalf("base requirement %d not positive", base)
	}
	if r := RequiredPoolSize(0.1, 0.05, 5, 200, 2, 0.5); r <= base {
		t.Errorf("halving epsilon did not grow the pool: %d vs %d", r, base)
	}
	if r := RequiredPoolSize(0.2, 0.005, 5, 200, 2, 0.5); r <= base {
		t.Errorf("tightening delta did not grow the pool: %d vs %d", r, base)
	}
	if r := RequiredPoolSize(0.2, 0.05, 10, 200, 2, 0.5); r <= base {
		t.Errorf("doubling k did not grow the pool: %d vs %d", r, base)
	}
	if r := RequiredPoolSize(0.2, 0.05, 5, 200, 2, 0.1); r <= base {
		t.Errorf("lower coverage did not grow the pool: %d vs %d", r, base)
	}
	if r := RequiredPoolSize(0.2, 0.05, 5, 200, 2, 0); r != sizingMaxPool {
		t.Errorf("zero coverage bound should clamp to the max pool, got %d", r)
	}
}

func TestSampleForAccuracySatisfiesOwnRule(t *testing.T) {
	cfg := generate.DefaultTwoBlock(7)
	cfg.N, cfg.PHom, cfg.PHet = 200, 0.06, 0.003
	g, err := generate.TwoBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	col, err := SampleForAccuracy(g, 5, k, 0.3, 0.1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pools := col.PoolSizes()
	if len(pools) != g.NumGroups() {
		t.Fatalf("got %d pools for %d groups", len(pools), g.NumGroups())
	}
	for i, s := range pools {
		if s < sizingStartPool {
			t.Errorf("group %d pool %d below the pilot size", i, s)
		}
	}
	// The returned collection must satisfy the stopping rule it was sized
	// by (unreachable targets error instead of clamping).
	required, err := requiredForPool(col, k, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pools[0] < required {
		t.Errorf("pool %d does not satisfy its own requirement %d", pools[0], required)
	}
}

func TestSampleForAccuracyTighterTargetGrowsPool(t *testing.T) {
	cfg := generate.DefaultTwoBlock(7)
	cfg.N, cfg.PHom, cfg.PHet = 200, 0.06, 0.003
	g, err := generate.TwoBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := SampleForAccuracy(g, 5, 5, 0.4, 0.2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SampleForAccuracy(g, 5, 5, 0.15, 0.05, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.PoolSizes()[0] <= loose.PoolSizes()[0] {
		t.Errorf("tighter target pool %d not larger than loose pool %d",
			tight.PoolSizes()[0], loose.PoolSizes()[0])
	}
}

func TestSampleForAccuracyDeterministic(t *testing.T) {
	g := generate.TwoStars()
	a, err := SampleForAccuracy(g, 3, 2, 0.3, 0.1, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleForAccuracy(g, 3, 2, 0.3, 0.1, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.PoolSizes()[0] != b.PoolSizes()[0] {
		t.Errorf("pool size depends on parallelism: %d vs %d", a.PoolSizes()[0], b.PoolSizes()[0])
	}
}

// TestSampleForAccuracyRejectsUnreachableTarget: a target whose demanded
// pool exceeds the cap errors (as the forward-MC path does) instead of
// silently returning an under-accurate pool.
func TestSampleForAccuracyRejectsUnreachableTarget(t *testing.T) {
	g := generate.TwoStars()
	if _, err := SampleForAccuracy(g, 3, 2, 0.002, 0.001, 1, 0); err == nil {
		t.Error("unreachable accuracy target accepted")
	}
}

func TestSampleForAccuracyRejectsBadTargets(t *testing.T) {
	g := generate.TwoStars()
	for _, tc := range []struct {
		name       string
		k          int
		eps, delta float64
	}{
		{"zero eps", 2, 0, 0.1},
		{"eps one", 2, 1, 0.1},
		{"zero delta", 2, 0.2, 0},
		{"delta one", 2, 0.2, 1},
		{"zero k", 0, 0.2, 0.1},
	} {
		if _, err := SampleForAccuracy(g, 3, tc.k, tc.eps, tc.delta, 1, 0); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSampleForAccuracyPinnedPools fixes the exact pools the doubling
// sizer returns, so a change to the greedy inside requiredForPool cannot
// silently move every accuracy-targeted answer.
func TestSampleForAccuracyPinnedPools(t *testing.T) {
	cfg := generate.DefaultTwoBlock(7)
	cfg.N, cfg.PHom, cfg.PHet = 200, 0.06, 0.003
	twoblock, err := generate.TwoBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		g          *graph.Graph
		tau        int32
		k          int
		eps, delta float64
		seed       int64
		want       []int
	}{
		{"twoblock k5 eps0.2", twoblock, 5, 5, 0.2, 0.05, 1, []int{107668, 107668}},
		{"twoblock k5 eps0.1", twoblock, 5, 5, 0.1, 0.05, 1, []int{417213, 417213}},
		{"twoblock k10 eps0.2", twoblock, 5, 10, 0.2, 0.1, 3, []int{190223, 190223}},
		{"twostars", generate.TwoStars(), 3, 2, 0.3, 0.1, 42, []int{512, 512}},
	} {
		col, err := SampleForAccuracy(tc.g, tc.tau, tc.k, tc.eps, tc.delta, tc.seed, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := col.PoolSizes(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: pools %v, want %v", tc.name, got, tc.want)
		}
	}
}
