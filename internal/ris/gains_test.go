package ris

import (
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

// TestInitialGainsMatchGainPerGroup checks the flat first pass row by row
// against GainPerGroup, bit for bit, before and after Adds and across
// parallelism — including the rows of nodes in no RR set, which are 0.
func TestInitialGainsMatchGainPerGroup(t *testing.T) {
	g := testGraph(t, 3)
	col, err := Sample(g, 2, []int{30, 30}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	unindexed := 0
	for v := 0; v < g.N(); v++ {
		if col.off[v] == col.off[v+1] {
			unindexed++
		}
	}
	if unindexed == 0 || unindexed == g.N() {
		t.Fatalf("%d of %d nodes in no RR set; want some but not all", unindexed, g.N())
	}
	// Every node twice: several chunks, with indexed and unindexed rows
	// in each.
	cands := append(g.Nodes(), g.Nodes()...)
	groups := g.NumGroups()
	e := NewEstimator(col)
	check := func(stage string) {
		t.Helper()
		for _, parallelism := range []int{1, 4} {
			rows := e.InitialGains(cands, parallelism)
			if len(rows) != len(cands)*groups {
				t.Fatalf("%s, parallelism %d: %d gains for %d candidates × %d groups", stage, parallelism, len(rows), len(cands), groups)
			}
			for i, v := range cands {
				want := e.GainPerGroup(v)
				for grp, w := range want {
					if got := rows[i*groups+grp]; got != w {
						t.Fatalf("%s, parallelism %d: candidate %d (node %d) group %d: row %v, GainPerGroup %v", stage, parallelism, i, v, grp, got, w)
					}
				}
			}
		}
	}
	check("empty seed set")
	added := 0
	for v := 0; v < g.N() && added < 3; v++ {
		if col.off[v] < col.off[v+1] {
			e.Add(graph.NodeID(v))
			added++
			check("after Add")
		}
	}
}

// TestInitialGainsAllocsIndependentOfN checks that the first pass
// allocates a constant number of objects — the flat buffer and per-worker
// bookkeeping — not one or more per candidate.
func TestInitialGainsAllocsIndependentOfN(t *testing.T) {
	allocs := func(n, parallelism int) float64 {
		g, err := generate.TwoBlock(generate.TwoBlockConfig{
			N: n, G: 0.7, PHom: 4 / float64(n), PHet: 1 / float64(n), PActivate: 0.2, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		col, err := Sample(g, 3, []int{200, 200}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEstimator(col)
		cands := g.Nodes()
		return testing.AllocsPerRun(20, func() { e.InitialGains(cands, parallelism) })
	}
	for _, parallelism := range []int{1, 4} {
		small, large := allocs(500, parallelism), allocs(5000, parallelism)
		if large > small {
			t.Errorf("parallelism %d: %v allocs at n=5000, %v at n=500; want no growth with n", parallelism, large, small)
		}
		t.Logf("parallelism %d: %v allocs at n=500, %v at n=5000", parallelism, small, large)
	}
}
