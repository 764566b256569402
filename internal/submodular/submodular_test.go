package submodular

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// coverage is a weighted set-coverage objective: node v covers sets[v];
// value is the total weight of covered elements. Exactly monotone
// submodular, so it is the canonical test objective.
type coverage struct {
	sets    [][]int
	weights []float64
	covered []bool
	value   float64
}

func newCoverage(sets [][]int, weights []float64) *coverage {
	return &coverage{sets: sets, weights: weights, covered: make([]bool, len(weights))}
}

func (c *coverage) Gain(v graph.NodeID) float64 {
	g := 0.0
	for _, e := range c.sets[v] {
		if !c.covered[e] {
			g += c.weights[e]
		}
	}
	return g
}

func (c *coverage) Add(v graph.NodeID) {
	for _, e := range c.sets[v] {
		if !c.covered[e] {
			c.covered[e] = true
			c.value += c.weights[e]
		}
	}
}

func (c *coverage) Value() float64 { return c.value }

// randomCoverage builds a random instance with n candidate nodes over m
// elements.
func randomCoverage(seed int64, n, m int) (func() Objective, []graph.NodeID) {
	rng := xrand.New(seed)
	sets := make([][]int, n)
	for v := range sets {
		k := rng.Intn(m/2 + 1)
		sets[v] = rng.Sample(m, k)
	}
	weights := make([]float64, m)
	for e := range weights {
		weights[e] = 1 + rng.Float64()
	}
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	return func() Objective { return newCoverage(sets, weights) }, candidates
}

func TestGreedyEqualsLazyGreedy(t *testing.T) {
	check := func(seed int64) bool {
		factory, cands := randomCoverage(seed, 25, 40)
		a, err1 := GreedyMax(factory(), cands, 6)
		b, err2 := LazyGreedyMax(factory(), cands, 6)
		if err1 != nil || err2 != nil {
			return false
		}
		// Both break ties by the lower node ID, so seeds and values match
		// exactly, pick by pick.
		return slices.Equal(a.Seeds, b.Seeds) && slices.Equal(a.Values, b.Values)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyGreedySavesEvaluations(t *testing.T) {
	factory, cands := randomCoverage(7, 200, 300)
	a, _ := GreedyMax(factory(), cands, 10)
	b, _ := LazyGreedyMax(factory(), cands, 10)
	if b.Evaluations >= a.Evaluations {
		t.Fatalf("CELF used %d evaluations, plain greedy %d", b.Evaluations, a.Evaluations)
	}
}

func TestGreedyGuarantee(t *testing.T) {
	// Greedy value >= (1 - 1/e) * OPT on random instances (Nemhauser et al.).
	check := func(seed int64) bool {
		factory, cands := randomCoverage(seed, 12, 20)
		res, err := LazyGreedyMax(factory(), cands, 3)
		if err != nil {
			return false
		}
		greedyVal := SetValue(factory, res.Seeds)
		_, opt, err := BruteForceMax(factory, cands, 3)
		if err != nil {
			return false
		}
		return greedyVal >= (1-1/math.E)*opt-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyStopsWhenExhausted(t *testing.T) {
	// Only 2 elements to cover; budget 5 should stop early.
	factory, _ := func() (func() Objective, []graph.NodeID) {
		sets := [][]int{{0}, {1}, {}}
		w := []float64{1, 1}
		return func() Objective { return newCoverage(sets, w) }, nil
	}()
	res, err := GreedyMax(factory(), []graph.NodeID{0, 1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("greedy picked %d seeds, want 2", len(res.Seeds))
	}
}

func TestNegativeBudget(t *testing.T) {
	factory, cands := randomCoverage(1, 5, 5)
	if _, err := GreedyMax(factory(), cands, -1); err == nil {
		t.Fatal("negative budget accepted by GreedyMax")
	}
	if _, err := LazyGreedyMax(factory(), cands, -1); err == nil {
		t.Fatal("negative budget accepted by LazyGreedyMax")
	}
	if _, _, err := BruteForceMax(factory, cands, -1); err == nil {
		t.Fatal("negative budget accepted by BruteForceMax")
	}
}

func TestZeroBudget(t *testing.T) {
	factory, cands := randomCoverage(1, 5, 5)
	res, err := LazyGreedyMax(factory(), cands, 0)
	if err != nil || len(res.Seeds) != 0 {
		t.Fatalf("zero budget: %v, %v", res.Seeds, err)
	}
}

func TestGreedyCoverReachesTarget(t *testing.T) {
	check := func(seed int64) bool {
		factory, cands := randomCoverage(seed, 20, 30)
		// Total achievable value:
		all := SetValue(factory, cands)
		target := 0.5 * all
		obj := factory()
		res, err := GreedyCover(obj, cands, target, 0)
		if err != nil {
			return false
		}
		return obj.Value() >= target && len(res.Seeds) > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyCoverAlreadySatisfied(t *testing.T) {
	factory, cands := randomCoverage(3, 10, 10)
	res, err := GreedyCover(factory(), cands, 0, 0)
	if err != nil || len(res.Seeds) != 0 {
		t.Fatalf("zero target: %v %v", res.Seeds, err)
	}
}

func TestGreedyCoverInfeasible(t *testing.T) {
	factory, cands := randomCoverage(5, 10, 20)
	all := SetValue(factory, cands)
	_, err := GreedyCover(factory(), cands, all*2, 0)
	if !errors.Is(err, ErrCoverInfeasible) {
		t.Fatalf("err = %v, want ErrCoverInfeasible", err)
	}
}

func TestGreedyCoverMaxSeeds(t *testing.T) {
	factory, cands := randomCoverage(5, 20, 30)
	all := SetValue(factory, cands)
	_, err := GreedyCover(factory(), cands, all*0.99, 1)
	if err != nil && !errors.Is(err, ErrCoverInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestGreedyCoverLnBound(t *testing.T) {
	// |greedy| <= ln(1+n) * |OPT| where n bounds the value... we check the
	// classical guarantee with OPT found by brute force over sizes.
	factory, cands := randomCoverage(11, 12, 15)
	all := SetValue(factory, cands)
	target := 0.8 * all
	res, err := GreedyCover(factory(), cands, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force smallest feasible set.
	optSize := -1
	for size := 1; size <= len(cands) && optSize < 0; size++ {
		set, val, err := BruteForceMax(factory, cands, size)
		if err != nil {
			t.Fatal(err)
		}
		_ = set
		if val >= target {
			optSize = size
		}
	}
	if optSize < 0 {
		t.Fatal("instance infeasible?")
	}
	bound := math.Log(1+15.0*2) * float64(optSize) // generous n for weighted cover
	if float64(len(res.Seeds)) > bound+1 {
		t.Fatalf("greedy used %d seeds; opt %d, bound %v", len(res.Seeds), optSize, bound)
	}
}

func TestBruteForceMatchesExhaustive(t *testing.T) {
	factory, cands := randomCoverage(13, 8, 12)
	set, val, err := BruteForceMax(factory, cands, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("brute force returned %v", set)
	}
	// Verify optimality directly.
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			v := SetValue(factory, []graph.NodeID{cands[i], cands[j]})
			if v > val+1e-9 {
				t.Fatalf("brute force missed better pair (%d,%d): %v > %v", i, j, v, val)
			}
		}
	}
}

func TestBruteForceBudgetLargerThanCandidates(t *testing.T) {
	factory, cands := randomCoverage(1, 3, 5)
	set, _, err := BruteForceMax(factory, cands, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("set = %v", set)
	}
}

func TestBruteForceZeroBudget(t *testing.T) {
	factory, cands := randomCoverage(1, 3, 5)
	set, val, err := BruteForceMax(factory, cands, 0)
	if err != nil || len(set) != 0 || val != 0 {
		t.Fatalf("set=%v val=%v err=%v", set, val, err)
	}
}

// TestMonotoneValuesNonDecreasing: greedy trace values never decrease.
func TestMonotoneValuesNonDecreasing(t *testing.T) {
	check := func(seed int64) bool {
		factory, cands := randomCoverage(seed, 20, 25)
		res, err := LazyGreedyMax(factory(), cands, 8)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Values); i++ {
			if res.Values[i] < res.Values[i-1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
