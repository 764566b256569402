package influence

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"fairtcim/internal/cascade"
	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// randomGrouped builds a random directed graph with n nodes, k groups and
// edge probability density; activation probability pAct.
func randomGrouped(seed int64, n, k int, density, pAct float64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	labels := make([]int, n)
	for v := range labels {
		labels[v] = v % k
	}
	b.SetGroups(labels)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bernoulli(density) {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), pAct)
			}
		}
	}
	return b.MustBuild()
}

func newEval(t *testing.T, g *graph.Graph, tau int32, r int, seed int64) *Evaluator {
	t.Helper()
	worlds := cascade.SampleWorlds(g, cascade.IC, r, seed, 0)
	e, err := NewEvaluator(g, worlds, tau)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorValidation(t *testing.T) {
	g := randomGrouped(1, 10, 2, 0.2, 0.5)
	if _, err := NewEvaluator(g, nil, 3); err == nil {
		t.Fatal("no worlds accepted")
	}
	worlds := cascade.SampleWorlds(g, cascade.IC, 2, 1, 0)
	if _, err := NewEvaluator(g, worlds, -1); err == nil {
		t.Fatal("negative tau accepted")
	}
	other := randomGrouped(2, 11, 2, 0.2, 0.5)
	otherWorlds := cascade.SampleWorlds(other, cascade.IC, 2, 1, 0)
	if _, err := NewEvaluator(g, otherWorlds, 3); err == nil {
		t.Fatal("mismatched world size accepted")
	}
}

func TestEmptySeedSetIsZero(t *testing.T) {
	g := randomGrouped(1, 20, 2, 0.1, 0.3)
	e := newEval(t, g, 5, 10, 1)
	if e.TotalUtility() != 0 {
		t.Fatalf("empty set utility %v", e.TotalUtility())
	}
	for _, u := range e.GroupUtilities() {
		if u != 0 {
			t.Fatalf("empty set group utility %v", e.GroupUtilities())
		}
	}
}

func TestSeedAlwaysCountsItself(t *testing.T) {
	g := randomGrouped(2, 15, 3, 0.1, 0.2)
	e := newEval(t, g, 0, 20, 2) // tau = 0: only the seeds themselves
	e.Add(3)
	e.Add(7)
	if got := e.TotalUtility(); got != 2 {
		t.Fatalf("tau=0 utility = %v, want 2", got)
	}
	util := e.GroupUtilities()
	if util[g.Group(3)] < 1 || util[g.Group(7)] < 1 {
		t.Fatalf("group utilities %v", util)
	}
}

func TestGainMatchesAddDelta(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGrouped(seed, 25, 3, 0.1, 0.4)
		e := newEval(t, g, 3, 15, seed+1)
		rng := xrand.New(seed + 2)
		for step := 0; step < 4; step++ {
			v := graph.NodeID(rng.Intn(g.N()))
			gain := e.Gain(v)
			before := e.TotalUtility()
			e.Add(v)
			after := e.TotalUtility()
			if math.Abs((after-before)-gain) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGainPerGroupMatchesGroupDelta(t *testing.T) {
	g := randomGrouped(5, 30, 2, 0.08, 0.5)
	e := newEval(t, g, 4, 25, 9)
	e.Add(0)
	per := append([]float64(nil), e.GainPerGroup(17)...)
	before := e.GroupUtilities()
	e.Add(17)
	after := e.GroupUtilities()
	for i := range per {
		if math.Abs((after[i]-before[i])-per[i]) > 1e-9 {
			t.Fatalf("group %d: gain %v, delta %v", i, per[i], after[i]-before[i])
		}
	}
}

func TestMonotonicity(t *testing.T) {
	// Adding any node never decreases any group utility.
	check := func(seed int64) bool {
		g := randomGrouped(seed, 20, 2, 0.12, 0.5)
		e := newEval(t, g, 5, 10, seed)
		rng := xrand.New(seed + 7)
		prev := e.GroupUtilities()
		for step := 0; step < 5; step++ {
			e.Add(graph.NodeID(rng.Intn(g.N())))
			cur := e.GroupUtilities()
			for i := range cur {
				if cur[i] < prev[i]-1e-12 {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmodularity(t *testing.T) {
	// Diminishing returns on the fixed world set: gain of v on A >= gain of
	// v on A ∪ {a}.
	check := func(seed int64) bool {
		g := randomGrouped(seed, 18, 2, 0.15, 0.5)
		rng := xrand.New(seed + 3)
		v := graph.NodeID(rng.Intn(g.N()))
		a := graph.NodeID(rng.Intn(g.N()))
		base := graph.NodeID(rng.Intn(g.N()))

		worlds := cascade.SampleWorlds(g, cascade.IC, 12, seed, 0)
		small, _ := NewEvaluator(g, worlds, 4)
		small.Add(base)
		gainSmall := small.Gain(v)

		big, _ := NewEvaluator(g, worlds, 4)
		big.Add(base)
		big.Add(a)
		gainBig := big.Gain(v)

		return gainSmall >= gainBig-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineMonotoneInTau(t *testing.T) {
	// Larger deadlines can only increase utility for the same seeds/worlds.
	g := randomGrouped(3, 40, 2, 0.06, 0.5)
	worlds := cascade.SampleWorlds(g, cascade.IC, 20, 4, 0)
	var prev float64
	for _, tau := range []int32{0, 1, 2, 4, 8, cascade.NoDeadline} {
		e, err := NewEvaluator(g, worlds, tau)
		if err != nil {
			t.Fatal(err)
		}
		e.Add(0)
		e.Add(1)
		if u := e.TotalUtility(); u < prev-1e-12 {
			t.Fatalf("utility decreased from %v to %v at tau=%d", prev, u, tau)
		} else {
			prev = u
		}
	}
}

func TestAgainstDirectSimulation(t *testing.T) {
	// The evaluator estimate must agree with direct IC simulation within
	// Monte-Carlo error.
	g := randomGrouped(11, 30, 2, 0.1, 0.3)
	seeds := []graph.NodeID{0, 5}
	const tau = 3
	const reps = 8000

	e := newEval(t, g, tau, reps, 21)
	for _, s := range seeds {
		e.Add(s)
	}
	est := e.TotalUtility()

	rng := xrand.New(22)
	direct := 0.0
	for r := 0; r < reps; r++ {
		times := cascade.RunIC(g, seeds, tau, rng)
		for _, tv := range times {
			if tv >= 0 && tv <= tau {
				direct++
			}
		}
	}
	direct /= reps

	if math.Abs(est-direct) > 0.3 {
		t.Fatalf("evaluator %v vs direct %v", est, direct)
	}
}

func TestPathDeadlineExact(t *testing.T) {
	// Deterministic path (p=1): utilities are exact and depend on tau.
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	for tau := int32(0); tau <= 5; tau++ {
		e := newEval(t, g, tau, 3, 1)
		e.Add(0)
		if got, want := e.TotalUtility(), float64(tau+1); got != want {
			t.Fatalf("tau=%d utility %v, want %v", tau, got, want)
		}
	}
}

func TestAddExistingSeedNoop(t *testing.T) {
	g := randomGrouped(4, 20, 2, 0.1, 0.5)
	e := newEval(t, g, 3, 10, 4)
	e.Add(2)
	before := e.TotalUtility()
	if gain := e.Gain(2); gain != 0 {
		t.Fatalf("gain of existing seed %v", gain)
	}
	e.Add(2)
	if e.TotalUtility() != before {
		t.Fatal("re-adding seed changed utility")
	}
}

func TestReset(t *testing.T) {
	g := randomGrouped(4, 20, 2, 0.1, 0.5)
	e := newEval(t, g, 3, 10, 4)
	e.Add(2)
	gain := e.Gain(7)
	e.Add(7)
	e.Reset()
	if e.TotalUtility() != 0 || len(e.Seeds()) != 0 {
		t.Fatal("reset did not clear state")
	}
	e.Add(2)
	if g2 := e.Gain(7); math.Abs(g2-gain) > 1e-9 {
		t.Fatalf("post-reset gain %v, want %v", g2, gain)
	}
}

// TestInitialGainsMatchSequential holds every utility's parallel first
// pass to its sequential GainPerGroup, bit for bit, on one and on several
// workers.
func TestInitialGainsMatchSequential(t *testing.T) {
	g := randomGrouped(8, 40, 3, 0.08, 0.4)
	const tau, r, seed = 4, 20, 8
	// Enough candidates (repeats allowed) for several parallel chunks.
	var cands []graph.NodeID
	for len(cands) < 300 {
		cands = append(cands, 1, 5, 9, 13, 22, 31)
	}
	for _, c := range []struct {
		name string
		new  func(t *testing.T) *Evaluator
	}{
		{"zero-one", func(t *testing.T) *Evaluator { return newEval(t, g, tau, r, seed) }},
		{"delayed", func(t *testing.T) *Evaluator { return newDelayedEval(t, g, tau, r, 0.5, seed) }},
		{"discounted", func(t *testing.T) *Evaluator { return newDiscEval(t, g, tau, 0.8, r, seed) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := c.new(t)
			e.Add(0)
			for _, parallelism := range []int{1, 4} {
				par := e.InitialGains(cands, parallelism)
				if len(par) != len(cands)*g.NumGroups() {
					t.Fatalf("parallelism %d: %d gains for %d candidates × %d groups", parallelism, len(par), len(cands), g.NumGroups())
				}
				for i, v := range cands {
					seq := e.GainPerGroup(v)
					for grp := range seq {
						if got := par[i*len(seq)+grp]; got != seq[grp] {
							t.Fatalf("parallelism %d candidate %d group %d: parallel %v vs sequential %v", parallelism, v, grp, got, seq[grp])
						}
					}
				}
			}
		})
	}
}

func TestDisparity(t *testing.T) {
	if d := Disparity([]float64{0.4, 0.1, 0.3}); math.Abs(d-0.3) > 1e-12 {
		t.Fatalf("Disparity = %v", d)
	}
	if d := Disparity([]float64{0.5}); d != 0 {
		t.Fatalf("single group disparity = %v", d)
	}
	if d := Disparity(nil); d != 0 {
		t.Fatalf("nil disparity = %v", d)
	}
}

func TestEstimateFreshWorlds(t *testing.T) {
	g := randomGrouped(6, 25, 2, 0.1, 0.4)
	util, err := EstimateIC(g, []graph.NodeID{0, 3}, 3, 200, 99, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(util) != 2 {
		t.Fatalf("got %d groups", len(util))
	}
	total := util[0] + util[1]
	if total < 2 { // at least the seeds themselves
		t.Fatalf("total %v < 2", total)
	}
	if _, err := EstimateIC(g, nil, 3, 0, 1, 0, nil); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := EstimateIC(g, []graph.NodeID{0, 25}, 3, 10, 1, 0, nil); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestEstimateDeterministic(t *testing.T) {
	g := randomGrouped(6, 25, 2, 0.1, 0.4)
	a, _ := EstimateIC(g, []graph.NodeID{1}, 2, 50, 7, 0, nil)
	b, _ := EstimateIC(g, []graph.NodeID{1}, 2, 50, 7, 0, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EstimateIC not deterministic for fixed seed")
		}
	}
}

// evaluatorReport is the reference EstimateIC must equal: the evaluator
// over the sampled worlds, every seed added in turn.
func evaluatorReport(t testing.TB, g *graph.Graph, seeds []graph.NodeID, tau int32, r int, seed int64) []float64 {
	t.Helper()
	e, err := NewEvaluator(g, cascade.SampleWorlds(g, cascade.IC, r, seed, 0), tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seeds {
		e.Add(v)
	}
	return e.GroupUtilities()
}

// checkICReport fails unless EstimateIC equals the evaluator's report bit
// for bit at parallelism 1, 2 and 4.
func checkICReport(t testing.TB, tag string, g *graph.Graph, seeds []graph.NodeID, tau int32, r int, seed int64) {
	t.Helper()
	want := evaluatorReport(t, g, seeds, tau, r, seed)
	for _, par := range []int{1, 2, 4} {
		got, err := EstimateIC(g, seeds, tau, r, seed, par, nil)
		if err != nil {
			t.Fatalf("%s par=%d: %v", tag, par, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s par=%d: EstimateIC %v, evaluator over sampled worlds %v", tag, par, got, want)
			}
		}
	}
}

// TestEstimateICMatchesWorlds: the lazy IC report bit-equals NewEvaluator
// plus Add over SampleWorlds, on sparse and dense random graphs, at
// deadlines from 0 to none, for empty, duplicate-laden and plain seed
// lists, one to 200 worlds and several worker counts.
func TestEstimateICMatchesWorlds(t *testing.T) {
	graphs := []*graph.Graph{
		randomGrouped(1, 40, 2, 0.05, 0.3),
		randomGrouped(2, 60, 3, 0.08, 0.45),
		randomGrouped(3, 25, 4, 0.3, 0.9),
	}
	seedLists := [][]graph.NodeID{nil, {0, 7, 7, 3, 0}, {5, 1, 2}}
	for gi, g := range graphs {
		for _, tau := range []int32{0, 1, 5, cascade.NoDeadline} {
			for si, seeds := range seedLists {
				for _, r := range []int{1, 7, 200} {
					tag := fmt.Sprintf("graph %d tau %d seeds %d r %d", gi, tau, si, r)
					checkICReport(t, tag, g, seeds, tau, r, int64(gi*1000+r))
				}
			}
		}
	}
	// The deadline matters on these graphs, or the matrix tests nothing.
	g, seeds := graphs[1], seedLists[2]
	near, _ := EstimateIC(g, seeds, 1, 200, 5, 0, nil)
	far, _ := EstimateIC(g, seeds, cascade.NoDeadline, 200, 5, 0, nil)
	if near[0]+near[1]+near[2] >= far[0]+far[1]+far[2] {
		t.Fatalf("τ=1 reaches %v, τ=∞ %v: no cascade goes past one hop", near, far)
	}
}

// TestEstimateICValidation: bad inputs are errors, not panics, and a
// closed cancel stops the report.
func TestEstimateICValidation(t *testing.T) {
	g := randomGrouped(1, 10, 2, 0.2, 0.5)
	for _, c := range []struct {
		seeds []graph.NodeID
		tau   int32
		r     int
	}{{nil, 3, 0}, {nil, -1, 5}, {[]graph.NodeID{10}, 3, 5}, {[]graph.NodeID{-1}, 3, 5}} {
		if _, err := EstimateIC(g, c.seeds, c.tau, c.r, 1, 1, nil); err == nil {
			t.Errorf("seeds %v tau %d r %d accepted", c.seeds, c.tau, c.r)
		}
	}
	closed := make(chan struct{})
	close(closed)
	if _, err := EstimateIC(g, []graph.NodeID{1}, 3, 50, 1, 2, closed); !errors.Is(err, context.Canceled) {
		t.Fatalf("closed cancel: got %v, want context.Canceled", err)
	}
}

// TestEstimateICBytesFlatInR: a report's allocations are worker scratch,
// not per world, so 2,000 worlds allocate no more bytes than 10.
func TestEstimateICBytesFlatInR(t *testing.T) {
	g := randomGrouped(2, 300, 2, 0.02, 0.3)
	seeds := []graph.NodeID{0, 10, 20}
	bytesFor := func(r, par int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			if _, err := EstimateIC(g, seeds, 5, r, 1, par, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 5
	}
	for _, par := range []int{1, 2} {
		small, large := bytesFor(10, par), bytesFor(2000, par)
		if large > small+512 {
			t.Errorf("parallelism %d: %d bytes for 2,000 worlds, %d for 10", par, large, small)
		}
	}
}

// FuzzICReportMatchesWorlds: on any small random graph, seed list,
// deadline and world count, the lazy IC report bit-equals the evaluator
// over the sampled worlds at every tested parallelism.
func FuzzICReportMatchesWorlds(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(20), uint8(90), int8(3), uint8(7), int64(5), []byte{0, 3, 3})
	f.Add(int64(2), uint8(8), uint8(200), uint8(255), int8(-1), uint8(1), int64(-9), []byte{})
	f.Add(int64(3), uint8(60), uint8(5), uint8(40), int8(0), uint8(40), int64(0), []byte{1, 2, 200, 1})
	f.Fuzz(func(t *testing.T, gseed int64, n, density, pAct uint8, tau int8, r uint8, seed int64, raw []byte) {
		nodes := 1 + int(n)%64
		g := randomGrouped(gseed, nodes, 1+int(n)%3, float64(density)/255, float64(pAct)/255)
		seeds := make([]graph.NodeID, 0, len(raw))
		for _, b := range raw {
			seeds = append(seeds, graph.NodeID(int(b)%nodes))
		}
		deadline := int32(tau)
		if deadline < 0 {
			deadline = cascade.NoDeadline
		}
		checkICReport(t, "fuzz", g, seeds, deadline, 1+int(r)%64, seed)
	})
}
