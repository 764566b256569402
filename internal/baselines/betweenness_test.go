package baselines

import (
	"math"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

func TestBetweennessPath(t *testing.T) {
	// Undirected path 0-1-2-3-4: exact betweenness (directed convention,
	// each ordered pair counted) is 2·k·(n-1-k) for node k.
	n := 5
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddUndirected(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	scores := Betweenness(g, 0, 0, 1)
	want := []float64{0, 6, 8, 6, 0}
	for v := range want {
		if math.Abs(scores[v]-want[v]) > 1e-9 {
			t.Fatalf("scores = %v, want %v", scores, want)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star: the hub lies on every leaf-to-leaf shortest path.
	n := 6
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddUndirected(0, graph.NodeID(v), 1)
	}
	g := b.MustBuild()
	scores := Betweenness(g, 0, 0, 0)
	wantHub := float64((n - 1) * (n - 2)) // ordered leaf pairs
	if math.Abs(scores[0]-wantHub) > 1e-9 {
		t.Fatalf("hub score %v, want %v", scores[0], wantHub)
	}
	for v := 1; v < n; v++ {
		if scores[v] != 0 {
			t.Fatalf("leaf %d score %v", v, scores[v])
		}
	}
}

func TestBetweennessSplitPaths(t *testing.T) {
	// Two equal-length paths between 0 and 3 via 1 and 2: each carries half
	// the dependency.
	b := graph.NewBuilder(4)
	b.AddUndirected(0, 1, 1)
	b.AddUndirected(0, 2, 1)
	b.AddUndirected(1, 3, 1)
	b.AddUndirected(2, 3, 1)
	g := b.MustBuild()
	scores := Betweenness(g, 0, 0, 1)
	if math.Abs(scores[1]-scores[2]) > 1e-9 {
		t.Fatalf("equal middles differ: %v vs %v", scores[1], scores[2])
	}
	if math.Abs(scores[1]-1) > 1e-9 { // 0→3 and 3→0, sigma split 1/2 each
		t.Fatalf("middle score %v, want 1", scores[1])
	}
}

func TestBetweennessParallelMatchesSerial(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 120, G: 0.7, PHom: 0.06, PHet: 0.01, PActivate: 0.1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The scores are bit-identical across parallelism and repeated runs:
	// no float sum depends on which worker finishes first.
	want := Betweenness(g, 0, 0, 1)
	for run := 0; run < 10; run++ {
		for _, parallelism := range []int{1, 2, 4} {
			got := Betweenness(g, 0, 0, parallelism)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("run %d, parallelism %d: node %d scores %v, want %v bit for bit", run, parallelism, v, got[v], want[v])
				}
			}
		}
	}
}

func TestBetweennessSampledApproximation(t *testing.T) {
	g, err := generate.TwoBlock(generate.TwoBlockConfig{
		N: 200, G: 0.7, PHom: 0.05, PHet: 0.01, PActivate: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := Betweenness(g, 0, 0, 0)
	approx := Betweenness(g, 80, 7, 0)
	// The scaled estimate should correlate: top exact node should rank
	// highly in the approximation.
	best := 0
	for v := range exact {
		if exact[v] > exact[best] {
			best = v
		}
	}
	rank := 0
	for v := range approx {
		if approx[v] > approx[best] {
			rank++
		}
	}
	if rank > 20 {
		t.Fatalf("top exact node ranks %d in sampled estimate", rank)
	}
}

func TestTopBetweenness(t *testing.T) {
	// Barbell: two cliques joined by a bridge node; the bridge has maximal
	// betweenness.
	b := graph.NewBuilder(9)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddUndirected(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	for i := 5; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			b.AddUndirected(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	b.AddUndirected(3, 4, 1)
	b.AddUndirected(4, 5, 1)
	g := b.MustBuild()
	seeds := TopBetweenness(g, 1)
	if len(seeds) != 1 || seeds[0] != 4 {
		t.Fatalf("TopBetweenness = %v, want [4]", seeds)
	}
}
