package submodular

import (
	"slices"
	"testing"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// tieCoverage builds a unit-weight coverage instance: n nodes over m
// elements, each covering at most four of them and some none. Unit weights
// make equal gains the rule rather than the exception, and sums of small
// integers are exact in float64, so the objective is exactly submodular.
func tieCoverage(rng *xrand.RNG, n, m int) func() Objective {
	sets := make([][]int, n)
	for v := range sets {
		sets[v] = rng.Sample(m, rng.Intn(min(m, 4)+1))
	}
	weights := make([]float64, m)
	for e := range weights {
		weights[e] = 1
	}
	return func() Objective { return newCoverage(sets, weights) }
}

// shuffledNodes returns the nodes 0..n-1 in an order drawn from rng.
func shuffledNodes(rng *xrand.RNG, n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i, v := range rng.Perm(n) {
		out[i] = graph.NodeID(v)
	}
	return out
}

// checkCanonical asserts that three greedy runs over the n-node instance,
// each on its own shuffle of the candidates, return the same seeds and
// values: GreedyMax, cold CELF at budget, and CELF captured at split then
// resumed to budget. The captured snapshot must hold only items that can
// gain, and the resumed run must spend, pick for pick, the evaluations the
// cold run spent. Finally a cover targeting the cold run's value after
// each pick must stop on the cold run's seeds up to that pick.
func checkCanonical(t *testing.T, factory func() Objective, n, budget, split int, rng *xrand.RNG) {
	t.Helper()
	plain, err := GreedyMax(factory(), shuffledNodes(rng, n), budget)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := LazyGreedyMax(factory(), shuffledNodes(rng, n), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cold.Seeds, plain.Seeds) || !slices.Equal(cold.Values, plain.Values) {
		t.Fatalf("CELF picked %v (values %v)\nGreedyMax picked %v (values %v)", cold.Seeds, cold.Values, plain.Seeds, plain.Values)
	}

	head, snap, err := LazyGreedyMaxCapture(factory(), shuffledNodes(rng, n), split, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds, values := head.Seeds, head.Values
	if snap != nil {
		for _, it := range snap.Items {
			if it.Gain <= 0 {
				t.Fatalf("split %d: snapshot keeps %+v, which can never gain", split, it)
			}
		}
		obj := factory()
		for _, v := range head.Seeds {
			obj.Add(v)
		}
		ext, _, err := LazyGreedyMaxResume(obj, snap, budget-split)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ext.Seeds {
			if got, want := head.Evaluations+ext.EvalsAt[i], cold.EvalsAt[split+i]; got != want {
				t.Fatalf("split %d: resumed pick %d spent %d evaluations, cold run %d", split, split+i, got, want)
			}
		}
		seeds = slices.Concat(seeds, ext.Seeds)
		values = slices.Concat(values, ext.Values)
	}
	if !slices.Equal(seeds, cold.Seeds) || !slices.Equal(values, cold.Values) {
		t.Fatalf("split %d: captured and resumed CELF picked %v (values %v)\ncold CELF picked %v (values %v)", split, seeds, values, cold.Seeds, cold.Values)
	}

	for j, target := range cold.Values {
		res, err := GreedyCover(factory(), shuffledNodes(rng, n), target, 0)
		if err != nil {
			t.Fatalf("cover of %v: %v", target, err)
		}
		if !slices.Equal(res.Seeds, cold.Seeds[:j+1]) {
			t.Fatalf("cover of %v picked %v, want %v", target, res.Seeds, cold.Seeds[:j+1])
		}
	}
}

// TestCanonicalGreedyAgrees pins the total order on tie-heavy coverage:
// GreedyMax, cold CELF, and CELF captured at every budget k and resumed to
// K return the same seeds and values, whatever the candidate order.
func TestCanonicalGreedyAgrees(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		n, m := 2+rng.Intn(40), 1+rng.Intn(30)
		factory := tieCoverage(rng, n, m)
		const budget = 12
		for split := 0; split <= budget; split++ {
			checkCanonical(t, factory, n, budget, split, rng)
		}
	}
}

// FuzzLazyGreedyMatchesGreedy fuzzes the same identity over the instance,
// the candidate orders, the budget and the resume split.
func FuzzLazyGreedyMatchesGreedy(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), int64(2), uint8(6), uint8(3))
	f.Add(int64(7), uint8(40), uint8(3), int64(9), uint8(12), uint8(0))
	f.Add(int64(3), uint8(5), uint8(30), int64(4), uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, inst int64, n, m uint8, order int64, budget, split uint8) {
		nodes, elems := 1+int(n)%64, 1+int(m)%64
		k := int(budget) % (nodes + 3)
		factory := tieCoverage(xrand.New(inst), nodes, elems)
		checkCanonical(t, factory, nodes, k, int(split)%(k+1), xrand.New(order))
	})
}
