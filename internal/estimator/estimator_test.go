package estimator_test

import (
	"math"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

// Every estimation engine must satisfy the shared interface.
var (
	_ estimator.Estimator = (*influence.Evaluator)(nil)
	_ estimator.Estimator = (*ris.Estimator)(nil)
)

func forwardEstimator(t *testing.T, g *graph.Graph, tau int32, samples int, seed int64) estimator.Estimator {
	t.Helper()
	worlds := cascade.SampleWorlds(g, cascade.IC, samples, seed, 0)
	e, err := influence.NewEvaluator(g, worlds, tau)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func risEstimator(t *testing.T, g *graph.Graph, tau int32, perGroup int, seed int64) estimator.Estimator {
	t.Helper()
	pools := make([]int, g.NumGroups())
	for i := range pools {
		pools[i] = perGroup
	}
	col, err := ris.Sample(g, tau, pools, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ris.NewEstimator(col)
}

// TestEngineUtilityParity checks that the forward-MC and RIS engines
// estimate the same per-group utilities for a fixed seed set on a fixed
// synthetic graph, within Monte-Carlo tolerance.
func TestEngineUtilityParity(t *testing.T) {
	cfg := generate.DefaultTwoBlock(7)
	cfg.N, cfg.PHom, cfg.PHet = 200, 0.06, 0.003
	g, err := generate.TwoBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 5
	fwd := forwardEstimator(t, g, tau, 400, 11)
	rev := risEstimator(t, g, tau, 6000, 13)

	seeds := []graph.NodeID{0, 50, 150}
	for _, s := range seeds {
		fwd.Add(s)
		rev.Add(s)
	}
	fu, ru := utilities(fwd), utilities(rev)
	if len(fu) != len(ru) {
		t.Fatalf("group count mismatch: %d vs %d", len(fu), len(ru))
	}
	for i := range fu {
		if relDiff(fu[i], ru[i]) > 0.15 {
			t.Errorf("group %d utility: forward-MC %.3f vs RIS %.3f (rel diff %.3f)",
				i, fu[i], ru[i], relDiff(fu[i], ru[i]))
		}
	}
	if relDiff(sum(fu), sum(ru)) > 0.15 {
		t.Errorf("total utility: forward-MC %.3f vs RIS %.3f",
			sum(fu), sum(ru))
	}
}

// TestEngineGainParity checks marginal-gain agreement from the empty set:
// both engines must rank a clearly-best node first.
func TestEngineGainParity(t *testing.T) {
	g := generate.TwoStars()
	const tau = 1
	fwd := forwardEstimator(t, g, tau, 50, 3)
	rev := risEstimator(t, g, tau, 2000, 5)

	for name, e := range map[string]estimator.Estimator{"forward-mc": fwd, "ris": rev} {
		best, bestGain := graph.NodeID(-1), -1.0
		for _, v := range g.Nodes() {
			if gain := sum(e.GainPerGroup(v)); gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best != 0 {
			t.Errorf("%s: best first pick = %d (gain %.2f), want hub 0", name, best, bestGain)
		}
	}
}

// readers is what both engines offer beside the interface: the
// allocating utility readers AppendUtilities must agree with.
type readers interface {
	estimator.Estimator
	GroupUtilities() []float64
	NormGroupUtilities() []float64
}

// TestAppendUtilitiesContract holds every engine's AppendUtilities to the
// rows GroupUtilities and NormGroupUtilities return, bit for bit, after 0
// to 3 Adds: the solvers record each pick through it and replay memoized
// answers from those records. The method keeps what the buffers already
// hold and allocates nothing when they have room.
func TestAppendUtilitiesContract(t *testing.T) {
	cfg := generate.DefaultTwoBlock(7)
	cfg.N, cfg.PHom, cfg.PHet = 200, 0.06, 0.003
	g, err := generate.TwoBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 5
	worlds := cascade.SampleWorlds(g, cascade.IC, 60, 11, 0)
	delayed, err := influence.NewDelayedEvaluator(g, cascade.SampleDelayedWorlds(g, cascade.GeometricDelay{M: 0.5}, 60, 11, 0), tau)
	if err != nil {
		t.Fatal(err)
	}
	discounted, err := influence.NewDiscountedEvaluator(g, worlds, tau, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]readers{
		"forward-mc": forwardEstimator(t, g, tau, 60, 11).(readers),
		"delayed":    delayed,
		"discounted": discounted,
		"ris":        risEstimator(t, g, tau, 500, 13).(readers),
	}
	groups := g.NumGroups()
	const mark = -1.5 // a row the buffers held before the call
	for name, e := range engines {
		for adds, v := range []graph.NodeID{-1, 0, 50, 150} {
			if v >= 0 {
				e.Add(v)
			}
			utils := append(make([]float64, 0, 2*groups), mark)
			norms := append(make([]float64, 0, 2*groups), mark)
			utils, norms = e.AppendUtilities(utils, norms)
			if len(utils) != 1+groups || len(norms) != 1+groups || utils[0] != mark || norms[0] != mark {
				t.Fatalf("%s after %d adds: appended to %v / %v", name, adds, utils, norms)
			}
			wantU, wantN := e.GroupUtilities(), e.NormGroupUtilities()
			for i := 0; i < groups; i++ {
				if math.Float64bits(utils[1+i]) != math.Float64bits(wantU[i]) ||
					math.Float64bits(norms[1+i]) != math.Float64bits(wantN[i]) {
					t.Fatalf("%s after %d adds: group %d appended (%v, %v), want (%v, %v)",
						name, adds, i, utils[1+i], norms[1+i], wantU[i], wantN[i])
				}
			}
			if allocs := testing.AllocsPerRun(50, func() {
				e.AppendUtilities(utils[:1], norms[:1])
			}); allocs != 0 {
				t.Fatalf("%s: AppendUtilities allocated %v times into buffers with room", name, allocs)
			}
		}
	}
}

// utilities reads e's current per-group utilities through the interface.
func utilities(e estimator.Estimator) []float64 {
	utils, _ := e.AppendUtilities(nil, nil)
	return utils
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func relDiff(a, b float64) float64 {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}
