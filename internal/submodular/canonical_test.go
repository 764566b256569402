package submodular

import (
	"math"
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

// groupCoverage is Σᵢ H(coverᵢ): unit-weight coverage with every element
// in one of several groups, coverᵢ the covered elements of group i, under
// a concave H per group (halving). It is a non-linear GroupObjective, so
// CELF keeps its rows and its bounds prune. Every value is an integer
// below 2^53, so gains are exact and shrink exactly. Under √ in place of
// halving they would not: Σᵢ √(uᵢ + dᵢ) − Σᵢ √uᵢ rounds differently once
// another group's uᵢ grows, so a gain that is really unchanged can come
// out an ulp larger, and exact ties, which this test is about, would be
// decided by rounding noise.
type groupCoverage struct {
	sets    [][]int
	group   []int // element → group
	covered []bool
	util    []float64
	row, x  []float64
}

// halving is H(u) = Σⱼ₌₁..ᵤ 2^max(10−j, 0): the first covered element of a
// group is worth 1024, each next one half the one before, down to 1.
func halving(u float64) float64 {
	if u <= 11 {
		return 2048 - math.Ldexp(1, 11-int(u))
	}
	return 2047 + u - 11
}

// tieGroupCoverage builds a groupCoverage over the same kind of instance
// as tieCoverage, its m elements spread over one to four groups.
func tieGroupCoverage(rng *xrand.RNG, n, m int) func() Objective {
	sets := make([][]int, n)
	for v := range sets {
		sets[v] = rng.Sample(m, rng.Intn(min(m, 4)+1))
	}
	groups := 1 + rng.Intn(4)
	group := make([]int, m)
	for e := range group {
		group[e] = rng.Intn(groups)
	}
	return func() Objective {
		return &groupCoverage{
			sets: sets, group: group, covered: make([]bool, m),
			util: make([]float64, groups), row: make([]float64, groups), x: make([]float64, groups),
		}
	}
}

func (c *groupCoverage) GainRow(v graph.NodeID) (float64, []float64) {
	clear(c.row)
	for _, e := range c.sets[v] {
		if !c.covered[e] {
			c.row[c.group[e]]++
		}
	}
	for i := range c.x {
		c.x[i] = c.util[i] + c.row[i]
	}
	return c.ValueAt(c.x) - c.Value(), c.row
}

func (c *groupCoverage) Gain(v graph.NodeID) float64 {
	g, _ := c.GainRow(v)
	return g
}

// Add records the new utilities in a new slice, as fairim's objective
// does, so a Utilities slice read before the pick still holds the old set.
func (c *groupCoverage) Add(v graph.NodeID) {
	c.util = slices.Clone(c.util)
	for _, e := range c.sets[v] {
		if !c.covered[e] {
			c.covered[e] = true
			c.util[c.group[e]]++
		}
	}
}

func (c *groupCoverage) Value() float64       { return c.ValueAt(c.util) }
func (c *groupCoverage) Utilities() []float64 { return c.util }
func (c *groupCoverage) Linear() bool         { return false }

func (c *groupCoverage) ValueAt(x []float64) float64 {
	t := 0.0
	for _, u := range x {
		t += halving(u)
	}
	return t
}

// plain hides an objective's GroupObjective view, so CELF keeps no rows
// and evaluates every stale top.
type plain struct{ Objective }

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
// gain and, for a non-linear GroupObjective, each item's row, one that
// bounds the item's current row and gain; the resumed run must spend,
// pick for pick, the evaluations the cold run spent. Cold CELF without
// rows must pick the same seeds too, and for a GroupObjective so must
// CELF fed a precomputed first pass of per-group gains, spending the cold
// run's evaluations less the n of that pass. Finally a cover targeting
// the cold run's value after each pick must stop on the cold run's seeds
// up to that pick. It returns the Gain calls of cold CELF with and
// without rows.
func checkCanonical(t *testing.T, factory func() Objective, n, budget, split int, rng *xrand.RNG) (rowEvals, plainEvals int) {
	t.Helper()
	plainGreedy, err := GreedyMax(factory(), shuffledNodes(rng, n), budget)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := LazyGreedyMax(factory(), shuffledNodes(rng, n), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cold.Seeds, plainGreedy.Seeds) || !slices.Equal(cold.Values, plainGreedy.Values) {
		t.Fatalf("CELF picked %v (values %v)\nGreedyMax picked %v (values %v)", cold.Seeds, cold.Values, plainGreedy.Seeds, plainGreedy.Values)
	}
	rowless, err := LazyGreedyMax(plain{factory()}, shuffledNodes(rng, n), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rowless.Seeds, cold.Seeds) || !slices.Equal(rowless.Values, cold.Values) {
		t.Fatalf("CELF without rows picked %v (values %v)\nwith rows %v (values %v)", rowless.Seeds, rowless.Values, cold.Seeds, cold.Values)
	}

	if _, ok := factory().(GroupObjective); ok {
		checkPrecomputedPass(t, factory, shuffledNodes(rng, n), budget, cold)
	}

	head, snap, err := LazyGreedyMaxCapture(factory(), shuffledNodes(rng, n), split, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds, values := head.Seeds, head.Values
	if snap != nil {
		obj := factory()
		for _, v := range head.Seeds {
			obj.Add(v)
		}
		checkSnapshotRows(t, obj, snap)
		for _, it := range snap.Items {
			if it.Gain <= 0 {
				t.Fatalf("split %d: snapshot keeps %+v, which can never gain", split, it)
			}
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
	return cold.Evaluations, rowless.Evaluations
}

// checkPrecomputedPass runs CELF over cands with its first pass read from
// a flat buffer of per-group gains, laid out as estimator.InitialGains
// lays it out, and asserts that it picks the cold run's seeds and values
// and spends, pick for pick, the cold run's evaluations less the pass.
func checkPrecomputedPass(t *testing.T, factory func() Objective, cands []graph.NodeID, budget int, cold Result) {
	t.Helper()
	obj := factory().(GroupObjective)
	var initial []float64
	for _, v := range cands {
		_, row := obj.GainRow(v)
		initial = append(initial, row...)
	}
	res, _, err := LazyGreedyMaxCapture(obj, cands, budget, initial)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Seeds, cold.Seeds) || !slices.Equal(res.Values, cold.Values) {
		t.Fatalf("CELF on a precomputed pass picked %v (values %v)\ncold CELF picked %v (values %v)", res.Seeds, res.Values, cold.Seeds, cold.Values)
	}
	for i, e := range res.EvalsAt {
		if e+len(cands) != cold.EvalsAt[i] {
			t.Fatalf("CELF on a precomputed pass spent %d evaluations by pick %d beside a %d-node pass, cold run %d", e, i, len(cands), cold.EvalsAt[i])
		}
	}
}

// checkSnapshotRows asserts that snap carries one row per item exactly
// when obj is a non-linear GroupObjective, and that each row and key
// bound the item's current per-group gains and gain on obj, which holds
// the snapshot's picks.
func checkSnapshotRows(t *testing.T, obj Objective, snap *LazySnapshot) {
	t.Helper()
	group, ok := obj.(GroupObjective)
	if !ok || group.Linear() {
		if snap.Rows != nil {
			t.Fatalf("snapshot keeps %d row entries for an objective without rows", len(snap.Rows))
		}
		return
	}
	width := len(group.Utilities())
	if len(snap.Rows) != len(snap.Items)*width {
		t.Fatalf("snapshot carries %d row entries for %d items of %d groups", len(snap.Rows), len(snap.Items), width)
	}
	for i, it := range snap.Items {
		g, row := group.GainRow(it.Node)
		if g > it.Gain {
			t.Fatalf("item %+v: current gain %v exceeds its key", it, g)
		}
		for j, d := range row {
			if d > float64(snap.Rows[i*width+j]) {
				t.Fatalf("item %+v: current row %v exceeds its kept row %v", it, row, snap.Rows[i*width:(i+1)*width])
			}
		}
	}
}

// TestCanonicalGreedyAgrees pins the total order on tie-heavy coverage,
// unit-weight and linear, and split into groups under Σᵢ H(coverᵢ), where
// CELF keeps rows and prunes by their bounds: GreedyMax, cold CELF, and
// CELF captured at every budget k and resumed to K return the same seeds
// and values, whatever the candidate order. On the grouped instances the
// bounds must save evaluations overall.
func TestCanonicalGreedyAgrees(t *testing.T) {
	var rowEvals, plainEvals int
	for seed := int64(1); seed <= 60; seed++ {
		rng := xrand.New(seed)
		n, m := 2+rng.Intn(40), 1+rng.Intn(30)
		linear := tieCoverage(rng, n, m)
		grouped := tieGroupCoverage(rng, n, m)
		const budget = 12
		for split := 0; split <= budget; split++ {
			checkCanonical(t, linear, n, budget, split, rng)
			r, p := checkCanonical(t, grouped, n, budget, split, rng)
			rowEvals += r
			plainEvals += p
		}
	}
	if rowEvals >= plainEvals {
		t.Fatalf("CELF with rows spent %d evaluations, without %d", rowEvals, plainEvals)
	}
}

// FuzzLazyGreedyMatchesGreedy fuzzes the same identity over the instance,
// the candidate orders, the budget and the resume split, on a linear and
// a grouped instance each.
func FuzzLazyGreedyMatchesGreedy(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), int64(2), uint8(6), uint8(3))
	f.Add(int64(7), uint8(40), uint8(3), int64(9), uint8(12), uint8(0))
	f.Add(int64(3), uint8(5), uint8(30), int64(4), uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, inst int64, n, m uint8, order int64, budget, split uint8) {
		nodes, elems := 1+int(n)%64, 1+int(m)%64
		k := int(budget) % (nodes + 3)
		rng := xrand.New(inst)
		linear := tieCoverage(rng, nodes, elems)
		grouped := tieGroupCoverage(rng, nodes, elems)
		checkCanonical(t, linear, nodes, k, int(split)%(k+1), xrand.New(order))
		checkCanonical(t, grouped, nodes, k, int(split)%(k+1), xrand.New(order))
	})
}
