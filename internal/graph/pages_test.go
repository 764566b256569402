package graph

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"fairtcim/internal/xrand"
)

// pagedGraph builds a graph of n nodes in two groups, each node with deg
// out-arcs to random other nodes at probabilities from deltaProbs, fed to
// the Builder in forward-CSR order as the delta reference rebuilds are.
func pagedGraph(n, deg int, seed int64) *Graph {
	rng := xrand.New(seed)
	b := NewBuilder(n)
	for v := range n {
		b.SetGroup(NodeID(v), v%2)
	}
	for u := range n {
		row := map[NodeID]bool{}
		for len(row) < deg {
			if v := NodeID(rng.Intn(n)); v != NodeID(u) {
				row[v] = true
			}
		}
		for _, v := range slices.Sorted(maps.Keys(row)) {
			b.AddEdge(NodeID(u), v, deltaProbs[rng.Intn(len(deltaProbs))])
		}
	}
	return b.MustBuild()
}

// reweight returns a delta that moves each named arc of g to a different
// probability from deltaProbs.
func reweight(g *Graph, arcs []Arc) Delta {
	var d Delta
	for _, a := range arcs {
		p, _ := edgeProb(g, a.From, a.To)
		i := slices.Index(deltaProbs, p)
		d.Edges = append(d.Edges, EdgeDelta{From: a.From, To: a.To, P: deltaProbs[(i+1)%len(deltaProbs)]})
	}
	return d
}

// arcsInDistinctPages picks k arcs of g whose tails lie in k distinct
// pages and whose heads do too, so a re-weight of them touches k pages in
// each direction.
func arcsInDistinctPages(g *Graph, k int, rng *xrand.RNG) []Arc {
	var arcs []Arc
	tails, heads := map[NodeID]bool{}, map[NodeID]bool{}
	for len(arcs) < k {
		u := NodeID(rng.Intn(g.N()))
		ts := g.OutNeighbors(u)
		v := ts[rng.Intn(len(ts))]
		if tails[u>>pageShift] || heads[v>>pageShift] {
			continue
		}
		tails[u>>pageShift], heads[v>>pageShift] = true, true
		arcs = append(arcs, Arc{From: u, To: v})
	}
	return arcs
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// arcsInOnePagePair picks two arcs of g whose tails share a page and
// whose heads share a page, so re-weighting both copies no more pages than
// re-weighting one.
func arcsInOnePagePair(t *testing.T, g *Graph) []Arc {
	for p := range g.outPages {
		byHeadPage := map[NodeID]Arc{}
		for u := NodeID(p << pageShift); u < NodeID(min((p+1)<<pageShift, g.N())); u++ {
			for _, v := range g.OutNeighbors(u) {
				if a, ok := byHeadPage[v>>pageShift]; ok {
					return []Arc{a, {From: u, To: v}}
				}
				byHeadPage[v>>pageShift] = Arc{From: u, To: v}
			}
		}
	}
	t.Fatal("no two arcs share both pages")
	return nil
}

// TestReweightCopiesOnlyTouchedPages: an 8-arc re-weight of a graph that
// spans 128 pages copies the pages that hold a re-weighted arc into fresh
// memory, shares every other page with its parent, and leaves the parent
// as it was. What it allocates follows the pages it copies, not the arcs:
// a second arc in pages already copied costs nothing, each further page
// one allocation per array. In bytes it takes a fraction of what copying
// the four probability and threshold arrays whole would.
func TestReweightCopiesOnlyTouchedPages(t *testing.T) {
	g := pagedGraph(128*pageNodes, 3, 22)
	arcs, labels := arcsOf(g)
	before, err := rebuildCSR(g.N(), labels, arcs)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	d := reweight(g, arcsInDistinctPages(g, 8, rng))
	g2, res, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.EdgesUpdated != 8 {
		t.Fatalf("EdgesUpdated = %d, want 8", res.EdgesUpdated)
	}
	if !reflect.DeepEqual(g, before) {
		t.Fatal("the re-weight modified its parent")
	}
	for _, e := range d.Edges {
		if p, _ := edgeProb(g2, e.From, e.To); p != e.P {
			t.Fatalf("arc %d->%d = %v after the re-weight, want %v", e.From, e.To, p, e.P)
		}
	}

	touchedOut, touchedIn := map[int]bool{}, map[int]bool{}
	for _, e := range d.Edges {
		touchedOut[int(e.From>>pageShift)] = true
		touchedIn[int(e.To>>pageShift)] = true
	}
	for _, dir := range []struct {
		name          string
		parent, child []arcPage
		touched       map[int]bool
	}{
		{"forward", g.outPages, g2.outPages, touchedOut},
		{"reverse", g.inPages, g2.inPages, touchedIn},
	} {
		if len(dir.child) != len(dir.parent) {
			t.Fatalf("%s: %d pages, parent has %d", dir.name, len(dir.child), len(dir.parent))
		}
		for p := range dir.parent {
			sharedProbs := unsafe.SliceData(dir.child[p].probs) == unsafe.SliceData(dir.parent[p].probs)
			sharedThresh := unsafe.SliceData(dir.child[p].thresh) == unsafe.SliceData(dir.parent[p].thresh)
			if dir.touched[p] && (sharedProbs || sharedThresh) {
				t.Fatalf("%s page %d holds a re-weighted arc but shares memory with the parent", dir.name, p)
			}
			if !dir.touched[p] && (!sharedProbs || !sharedThresh) {
				t.Fatalf("%s page %d holds no re-weighted arc but was copied", dir.name, p)
			}
		}
	}

	flatBytes := uint64(g.M()) * 4 * 8 // out/in probabilities and thresholds
	if got := bytesPerRun(20, func() { g.ApplyDelta(d) }); got >= flatBytes/8 {
		t.Fatalf("an 8-arc re-weight allocates %d bytes, want < %d (1/8 of the four flat arrays)", got, flatBytes/8)
	}
	allocs := func(d Delta) float64 {
		return testing.AllocsPerRun(20, func() { g.ApplyDelta(d) })
	}
	pair := reweight(g, arcsInOnePagePair(t, g))
	one := pair
	one.Edges = pair.Edges[:1]
	a1, a2, a8 := allocs(one), allocs(pair), allocs(d)
	if a2 != a1 {
		t.Fatalf("a re-weight allocates %v objects for 1 arc but %v for 2 arcs in the same pages", a1, a2)
	}
	if want := a1 + 2*14; a8 != want { // 7 more pages per direction, 2 arrays each
		t.Fatalf("an 8-arc re-weight over 16 pages allocates %v objects, want %v", a8, want)
	}
}

// randomDelta draws a batch over a multi-page graph: re-weights, no-op
// restatements and removals of existing arcs, adds of new ones, the odd
// duplicate arc, and now and then a relabel. One batch in three only
// re-weights and restates, so it takes the copy-on-write path.
func randomDelta(g *Graph, rng *xrand.RNG) Delta {
	n := g.N()
	existing := func() EdgeDelta {
		u := NodeID(rng.Intn(n))
		for g.OutDegree(u) == 0 {
			u = NodeID(rng.Intn(n))
		}
		ts, ps := g.OutEdges(u)
		i := rng.Intn(len(ts))
		return EdgeDelta{From: u, To: ts[i], P: ps[i]}
	}
	kinds := 16
	if rng.Intn(3) == 0 {
		kinds = 7
	}
	var d Delta
	for range 1 + rng.Intn(12) {
		var e EdgeDelta
		switch kind := rng.Intn(kinds); {
		case kind < 6:
			e = existing()
			e.P = deltaProbs[rng.Intn(len(deltaProbs))]
		case kind < 7:
			e = existing()
		case kind < 10:
			e = existing()
			e.P, e.Remove = 0, true
		case kind < 15:
			e = EdgeDelta{From: NodeID(rng.Intn(n)), To: NodeID(rng.Intn(n)), P: deltaProbs[rng.Intn(len(deltaProbs))]}
		case len(d.Edges) > 0:
			e = d.Edges[rng.Intn(len(d.Edges))]
		default:
			continue
		}
		d.Edges = append(d.Edges, e)
	}
	if rng.Intn(8) == 0 {
		v := NodeID(rng.Intn(n))
		d.Groups = append(d.Groups, GroupDelta{Node: v, Group: 1 - g.Group(v)})
	}
	return d
}

// TestApplyDeltaMatchesRebuildMultiPage holds random batches on a graph
// of many pages to the Builder-rebuild reference, as
// TestApplyDeltaMatchesRebuild does on single-page graphs: every batch is
// checked on the snapshot the previous accepted one produced, so re-weighted
// pages are re-weighted again and merges run over copied pages.
func TestApplyDeltaMatchesRebuildMultiPage(t *testing.T) {
	g := pagedGraph(9*pageNodes+17, 3, 5)
	rng := xrand.New(19)
	accepted := 0
	const trials = 300
	for range trials {
		if next := checkApplyDelta(t, g, randomDelta(g, rng)); next != nil {
			g = next
			accepted++
		}
	}
	if accepted < trials/2 {
		t.Fatalf("only %d of %d random batches were accepted", accepted, trials)
	}
}

// TestReweightChainUndoes applies 200 chained 8-arc re-weights to a graph
// of 128 pages, then their inverses in reverse order: the result must
// deep-equal the original, ExpectedLiveEdges included, however the pages
// were copied and shared along the way.
func TestReweightChainUndoes(t *testing.T) {
	orig := pagedGraph(128*pageNodes, 3, 11)
	rng := xrand.New(3)
	g := orig
	var inverses []Delta
	for range 200 {
		d := reweight(g, arcsInDistinctPages(g, 8, rng))
		inverses = append(inverses, inverseDelta(g, d))
		next, _, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		g = next
	}
	for i := len(inverses) - 1; i >= 0; i-- {
		next, _, err := g.ApplyDelta(inverses[i])
		if err != nil {
			t.Fatalf("inverse %d: %v", i, err)
		}
		g = next
	}
	if !reflect.DeepEqual(g, orig) {
		t.Fatal("200 re-weights and their inverses did not give back the original graph")
	}
}

// TestReweightChurnKeepsPagesCompact: under long churn of 8-arc
// re-weights, the current snapshot keeps alive little more than one copy
// of each page. When a batch's pages shared one buffer, each current page
// kept its superseded neighbours alive, about three times the flat arrays.
func TestReweightChurnKeepsPagesCompact(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	g := pagedGraph(128*pageNodes, 3, 13)
	flat := uint64(g.M()) * 4 * 8
	before := live()
	rng := xrand.New(4)
	for range 1000 {
		next, _, err := g.ApplyDelta(reweight(g, arcsInDistinctPages(g, 8, rng)))
		if err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
		g = next
	}
	after := live()
	t.Logf("churn grew the live heap by %d bytes; the flat arrays take %d", int64(after)-int64(before), flat)
	if after > before+flat {
		t.Fatalf("after 1000 re-weights the snapshot keeps %d bytes more alive than at the start, want < %d (the flat arrays once more)", after-before, flat)
	}
	runtime.KeepAlive(g)
}

// TestOutPageThresholdsMatchRows walks every node through the page
// accessor, as the world samplers do, and checks each row against the
// thresholds of its arcs' probabilities, on a multi-page graph with a
// ragged last page and on a re-weighted snapshot whose touched pages were
// copied.
func TestOutPageThresholdsMatchRows(t *testing.T) {
	g := pagedGraph(3*pageNodes+37, 3, 5)
	ng, _, err := g.ApplyDelta(reweight(g, arcsInDistinctPages(g, 4, xrand.New(9))))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Graph{g, ng} {
		offsets, _ := h.OutCSR()
		for v := NodeID(0); int(v) < h.N(); {
			thr, end := h.OutPageThresholds(v)
			if want := min(v|(pageNodes-1)+1, NodeID(h.N())); end != want {
				t.Fatalf("page of node %d ends at %d, want %d", v, end, want)
			}
			base := offsets[v]
			for ; v < end; v++ {
				_, probs := h.OutEdges(v)
				want := make([]uint64, len(probs))
				for i, p := range probs {
					want[i] = xrand.Threshold53(p)
				}
				if got := thr[offsets[v]-base : offsets[v+1]-base]; !slices.Equal(got, want) {
					t.Fatalf("node %d: page walk reads %v, its arcs' thresholds are %v", v, got, want)
				}
			}
		}
	}
}
