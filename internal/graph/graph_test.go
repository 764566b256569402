package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fairtcim/internal/xrand"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddUndirected(0, 1, 0.5)
	b.AddUndirected(1, 2, 0.25)
	b.SetGroup(2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := buildTriangle(t)
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d", g.M())
	}
	if g.OutDegree(1) != 2 {
		t.Fatalf("OutDegree(1) = %d", g.OutDegree(1))
	}
	if g.InDegree(1) != 2 {
		t.Fatalf("InDegree(1) = %d", g.InDegree(1))
	}
	if g.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d", g.NumGroups())
	}
	if got := g.GroupSizes(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("GroupSizes = %v", got)
	}
}

func TestOutEdgesSorted(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 3, 0.1)
	b.AddEdge(0, 1, 0.2)
	b.AddEdge(0, 2, 0.3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	targets, probs := g.OutEdges(0)
	if len(targets) != 3 || len(probs) != 3 {
		t.Fatalf("OutEdges(0) = %v, %v", targets, probs)
	}
	for i := 1; i < len(targets); i++ {
		if targets[i] <= targets[i-1] {
			t.Fatalf("out edges not sorted: %v", targets)
		}
	}
	// Probabilities must follow their targets through the sort.
	want := map[NodeID]float64{1: 0.2, 2: 0.3, 3: 0.1}
	for i, to := range targets {
		if probs[i] != want[to] {
			t.Fatalf("prob for edge 0->%d = %v, want %v", to, probs[i], want[to])
		}
	}
}

func TestReverseAdjacencyMirrors(t *testing.T) {
	check := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 20
		b := NewBuilder(n)
		type key struct{ u, v NodeID }
		seen := map[key]bool{}
		for i := 0; i < 50; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v || seen[key{u, v}] {
				continue
			}
			seen[key{u, v}] = true
			b.AddEdge(u, v, rng.Float64())
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Every forward edge appears exactly once in the reverse view.
		fwd := 0
		for v := 0; v < n; v++ {
			fwd += g.OutDegree(NodeID(v))
			sources, inProbs := g.InEdges(NodeID(v))
			for i, src := range sources {
				found := false
				targets, outProbs := g.OutEdges(src)
				for j, to := range targets {
					if to == NodeID(v) && outProbs[j] == inProbs[i] {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		rev := 0
		for v := 0; v < n; v++ {
			rev += g.InDegree(NodeID(v))
		}
		return fwd == rev && fwd == g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 1, 0.7)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge not rejected")
	}
}

func TestSparseGroupLabelsRejected(t *testing.T) {
	b := NewBuilder(3)
	b.SetGroup(0, 0)
	b.SetGroup(1, 2) // group 1 empty
	if _, err := b.Build(); err == nil {
		t.Fatal("sparse group labels not rejected")
	}
}

func TestAddNodeGrowsGraph(t *testing.T) {
	b := NewBuilder(1)
	id := b.AddNode()
	if id != 1 {
		t.Fatalf("AddNode id = %d", id)
	}
	b.AddEdge(0, id, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5, 0.5)
}

func TestBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad probability did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 1, 1.5)
}

func TestGroupMembers(t *testing.T) {
	g := buildTriangle(t)
	if got := g.GroupMembers(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("GroupMembers(1) = %v", got)
	}
	if got := g.GroupMembers(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("GroupMembers(0) = %v", got)
	}
}

func TestWithGroups(t *testing.T) {
	g := buildTriangle(t)
	g2, err := g.WithGroups([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d", g2.NumGroups())
	}
	// Original untouched.
	if g.NumGroups() != 2 {
		t.Fatalf("original mutated: %d groups", g.NumGroups())
	}
	if _, err := g.WithGroups([]int{0}); err == nil {
		t.Fatal("wrong-length labels accepted")
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTriangle(t)
	s := g.ComputeStats()
	if s.N != 3 || s.M != 4 {
		t.Fatalf("stats %+v", s)
	}
	// within group 0: 0<->1 (2 directed); across: 1<->2 (2 directed).
	if s.WithinEdges[0] != 2 || s.WithinEdges[1] != 0 || s.AcrossEdges != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxOutDegree != 2 {
		t.Fatalf("MaxOutDegree = %d", s.MaxOutDegree)
	}
}

func TestRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.NumGroups() != g.NumGroups() {
		t.Fatalf("round trip mismatch: N=%d M=%d k=%d", g2.N(), g2.M(), g2.NumGroups())
	}
	for v := 0; v < g.N(); v++ {
		if g.Group(NodeID(v)) != g2.Group(NodeID(v)) {
			t.Fatalf("group mismatch at %d", v)
		}
		at, ap := g.OutEdges(NodeID(v))
		bt, bp := g2.OutEdges(NodeID(v))
		if len(at) != len(bt) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range at {
			if at[i] != bt[i] || ap[i] != bp[i] {
				t.Fatalf("edge mismatch at %d: (%d,%v) vs (%d,%v)", v, at[i], ap[i], bt[i], bp[i])
			}
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	check := func(seed int64) bool {
		rng := xrand.New(seed)
		n := rng.Intn(30) + 1
		b := NewBuilder(n)
		type key struct{ u, v NodeID }
		seen := map[key]bool{}
		for i := 0; i < 2*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if seen[key{u, v}] {
				continue
			}
			seen[key{u, v}] = true
			b.AddEdge(u, v, float64(rng.Intn(100))/100)
		}
		// Dense random groups.
		k := rng.Intn(3) + 1
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % k
		}
		b.SetGroups(labels)
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if Write(&buf, g) != nil {
			return false
		}
		g2, err := Read(&buf)
		if err != nil {
			return false
		}
		s1, s2 := g.ComputeStats(), g2.ComputeStats()
		if s1.N != s2.N || s1.M != s2.M || s1.AcrossEdges != s2.AcrossEdges {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                                  // no header
		"wrong header\nn 3\n",               // bad header
		"fairtcim-graph v1\n",               // missing node count
		"fairtcim-graph v1\nn -1\n",         // negative nodes
		"fairtcim-graph v1\nn 2\ne 0 5 0.5", // edge out of range
		"fairtcim-graph v1\nn 2\ne 0 1 2.0", // probability out of range
		"fairtcim-graph v1\nn 2\nx 0 1",     // unknown record
		"fairtcim-graph v1\nn 2\ng 0",       // short group line
		"fairtcim-graph v1\nn 2\ng 0 9",     // sparse groups
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Fatalf("Read accepted invalid input %q", src)
		}
	}
}

func TestReadIgnoresComments(t *testing.T) {
	src := "# a comment\nfairtcim-graph v1\n\nn 2\n# another\ne 0 1 0.5\n"
	g, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestBFSDistances(t *testing.T) {
	// Path 0->1->2->3 plus isolated 4.
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	d := g.BFSDistances([]NodeID{0})
	want := []int32{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist = %v, want %v", d, want)
		}
	}
	// Multi-seed takes the minimum.
	d = g.BFSDistances([]NodeID{0, 2})
	want = []int32{0, 1, 0, 1, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist = %v, want %v", d, want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 1) // directed only: still same weak component
	b.AddUndirected(2, 3, 1)
	// 4 and 5 isolated
	g := b.MustBuild()
	labels, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("count = %d, labels = %v", count, labels)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] {
		t.Fatalf("labels = %v", labels)
	}
	if labels[0] == labels[2] || labels[4] == labels[5] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(7)
	b.AddUndirected(0, 1, 1)
	b.AddUndirected(1, 2, 1)
	b.AddUndirected(3, 4, 1)
	g := b.MustBuild()
	lc := g.LargestComponent()
	if len(lc) != 3 || lc[0] != 0 || lc[1] != 1 || lc[2] != 2 {
		t.Fatalf("LargestComponent = %v", lc)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.N() != 0 || g.M() != 0 {
		t.Fatal("empty graph not empty")
	}
	if _, count := g.ConnectedComponents(); count != 0 {
		t.Fatal("empty graph has components")
	}
	if g.LargestComponent() != nil {
		t.Fatal("empty graph has a largest component")
	}
}

// TestBuildAllocsIndependentOfSize: Build allocates a fixed number of
// objects however many rows it sorts. Boxing a fresh sorter per row into
// sort.Interface used to cost one allocation per row with two or more
// arcs, in each direction.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			for _, d := range []int{3, 2, 1} { // descending, so every row needs sorting
				b.AddEdge(NodeID(v), NodeID((v+d)%n), 0.5)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Fatalf("Build allocates %v objects at n=100 but %v at n=10000", small, large)
	}
}
