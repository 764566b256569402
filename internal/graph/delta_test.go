package graph

import (
	"cmp"
	"maps"
	"reflect"
	"slices"
	"testing"

	"fairtcim/internal/xrand"
)

// deltaFixture: 6 nodes in two groups, a mix of within- and cross-group
// edges.
func deltaFixture(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	b.SetGroups([]int{0, 0, 0, 1, 1, 1})
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.25)
	b.AddEdge(1, 2, 0.75)
	b.AddEdge(3, 4, 0.5)
	b.AddEdge(4, 5, 0.5)
	b.AddEdge(2, 3, 0.1)
	return b.MustBuild()
}

func edgeProb(g *Graph, u, v NodeID) (float64, bool) {
	ts, ps := g.OutEdges(u)
	for i, w := range ts {
		if w == v {
			return ps[i], true
		}
	}
	return 0, false
}

func TestApplyDeltaAddUpdateRemove(t *testing.T) {
	g := deltaFixture(t)
	g2, res, err := g.ApplyDelta(Delta{Edges: []EdgeDelta{
		{From: 5, To: 0, P: 0.9},       // add
		{From: 0, To: 1, P: 0.6},       // update
		{From: 0, To: 2, P: 0.25},      // no-op restatement
		{From: 4, To: 5, Remove: true}, // remove
	}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.EdgesAdded != 1 || res.EdgesUpdated != 1 || res.EdgesRemoved != 1 || res.GroupsChanged != 0 {
		t.Fatalf("result counts = %+v", res)
	}
	wantArcs := []Arc{{0, 1}, {4, 5}, {5, 0}}
	if !reflect.DeepEqual(res.TouchedArcs, wantArcs) {
		t.Fatalf("TouchedArcs = %v, want %v", res.TouchedArcs, wantArcs)
	}
	wantHeads := []NodeID{0, 1, 5}
	if !reflect.DeepEqual(res.TouchedHeads, wantHeads) {
		t.Fatalf("TouchedHeads = %v, want %v", res.TouchedHeads, wantHeads)
	}
	if g2.M() != g.M() { // +1 add, -1 remove
		t.Fatalf("new M = %d, want %d", g2.M(), g.M())
	}
	if p, ok := edgeProb(g2, 0, 1); !ok || p != 0.6 {
		t.Fatalf("edge 0->1 = (%v,%v), want 0.6", p, ok)
	}
	if p, ok := edgeProb(g2, 5, 0); !ok || p != 0.9 {
		t.Fatalf("edge 5->0 = (%v,%v), want 0.9", p, ok)
	}
	if _, ok := edgeProb(g2, 4, 5); ok {
		t.Fatal("edge 4->5 survived removal")
	}
	// Old snapshot untouched.
	if p, ok := edgeProb(g, 0, 1); !ok || p != 0.5 {
		t.Fatalf("old snapshot mutated: edge 0->1 = (%v,%v)", p, ok)
	}
	if _, ok := edgeProb(g, 4, 5); !ok {
		t.Fatal("old snapshot lost edge 4->5")
	}
	// Reverse CSR and thresholds consistent on the new snapshot.
	if got := g2.InDegree(0); got != 1 {
		t.Fatalf("in-degree(0) = %d, want 1", got)
	}
	offsets, _ := g2.OutCSR()
	for v := NodeID(0); int(v) < g2.N(); {
		thr, end := g2.OutPageThresholds(v)
		if len(thr) != int(offsets[end]-offsets[v]) {
			t.Fatalf("page of node %d holds %d thresholds for %d arcs", v, len(thr), offsets[end]-offsets[v])
		}
		v = end
	}
	for v := range NodeID(g2.N()) {
		if len(g2.InThresholds(v)) != g2.InDegree(v) {
			t.Fatalf("node %d's threshold row not rebuilt to match its in-degree", v)
		}
	}
}

func TestApplyDeltaGroups(t *testing.T) {
	g := deltaFixture(t)
	g2, res, err := g.ApplyDelta(Delta{Groups: []GroupDelta{
		{Node: 2, Group: 1},
		{Node: 5, Group: 1}, // no-op
	}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.GroupsChanged != 1 {
		t.Fatalf("GroupsChanged = %d, want 1", res.GroupsChanged)
	}
	if len(res.TouchedArcs) != 0 || len(res.TouchedHeads) != 0 {
		t.Fatalf("group-only delta touched edges: %v", res.TouchedArcs)
	}
	if g2.Group(2) != 1 || g.Group(2) != 0 {
		t.Fatalf("group move wrong: new=%d old=%d", g2.Group(2), g.Group(2))
	}
	if got := g2.GroupSizes(); !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("GroupSizes = %v", got)
	}
}

func TestApplyDeltaGroupCountShrinks(t *testing.T) {
	g := deltaFixture(t)
	// Moving every group-1 node into group 0 is legal: the label range
	// stays dense, so the group count contracts to 1.
	g2, res, err := g.ApplyDelta(Delta{Groups: []GroupDelta{
		{Node: 3, Group: 0}, {Node: 4, Group: 0}, {Node: 5, Group: 0},
	}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if res.GroupsChanged != 3 {
		t.Fatalf("GroupsChanged = %d, want 3", res.GroupsChanged)
	}
	if g2.NumGroups() != 1 || g.NumGroups() != 2 {
		t.Fatalf("group counts new=%d old=%d", g2.NumGroups(), g.NumGroups())
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := deltaFixture(t)
	cases := []struct {
		name string
		d    Delta
	}{
		{"empty", Delta{}},
		{"node out of range", Delta{Edges: []EdgeDelta{{From: 0, To: 99, P: 0.5}}}},
		{"zero probability upsert", Delta{Edges: []EdgeDelta{{From: 0, To: 3}}}},
		{"probability above one", Delta{Edges: []EdgeDelta{{From: 0, To: 3, P: 1.5}}}},
		{"remove with probability", Delta{Edges: []EdgeDelta{{From: 0, To: 1, P: 0.5, Remove: true}}}},
		{"remove missing edge", Delta{Edges: []EdgeDelta{{From: 0, To: 5, Remove: true}}}},
		{"duplicate edge in batch", Delta{Edges: []EdgeDelta{{From: 0, To: 1, P: 0.5}, {From: 0, To: 1, P: 0.6}}}},
		{"group node out of range", Delta{Groups: []GroupDelta{{Node: 99, Group: 0}}}},
		{"negative group", Delta{Groups: []GroupDelta{{Node: 0, Group: -1}}}},
		{"sparse group labels", Delta{Groups: []GroupDelta{{Node: 0, Group: 7}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := g.ApplyDelta(tc.d); err == nil {
				t.Fatalf("ApplyDelta(%+v) succeeded, want error", tc.d)
			}
		})
	}
	// Failed deltas leave the graph untouched (it is immutable, but check
	// observable state anyway).
	if p, ok := edgeProb(g, 0, 1); !ok || p != 0.5 {
		t.Fatalf("graph mutated after failed deltas: %v %v", p, ok)
	}
}

// TestApplyDeltaDeterministic: the same delta on the same graph gives the
// same snapshot every time. Added arcs used to be summed into
// ExpectedLiveEdges in map-iteration order, so 0.3+0.6+0.1+0.65 came out
// 1.65 on some applies and 1.6500000000000001 on others.
func TestApplyDeltaDeterministic(t *testing.T) {
	g := NewBuilder(4).MustBuild()
	d := Delta{Edges: []EdgeDelta{
		{From: 0, To: 1, P: 0.3},
		{From: 1, To: 2, P: 0.6},
		{From: 2, To: 3, P: 0.1},
		{From: 3, To: 0, P: 0.65},
	}}
	first, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for i := 0; i < 200; i++ {
		next, _, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if !reflect.DeepEqual(next, first) {
			t.Fatalf("apply %d differs from the first: ExpectedLiveEdges %v vs %v",
				i, next.ExpectedLiveEdges(), first.ExpectedLiveEdges())
		}
	}
}

// deltaProbs are the probabilities the randomized delta tests draw from:
// sums of these depend on the order they are added in, so a snapshot
// whose ExpectedLiveEdges is not summed in CSR order shows.
var deltaProbs = []float64{0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.65, 0.7, 1}

// rebuildCSR is the reference snapshot: a Builder fed the arcs in
// forward-CSR order, with the given labels.
func rebuildCSR(n int, labels []int, arcs map[Arc]float64) (*Graph, error) {
	b := NewBuilder(n)
	b.SetGroups(labels)
	for _, a := range slices.SortedFunc(maps.Keys(arcs), cmpArc) {
		b.AddEdge(a.From, a.To, arcs[a])
	}
	return b.Build()
}

func cmpArc(a, b Arc) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}

// arcsOf returns g's arcs and labels in the reference model's form.
func arcsOf(g *Graph) (map[Arc]float64, []int) {
	arcs := map[Arc]float64{}
	labels := make([]int, g.N())
	for u := range labels {
		labels[u] = g.Group(NodeID(u))
		ts, ps := g.OutEdges(NodeID(u))
		for i, v := range ts {
			arcs[Arc{From: NodeID(u), To: v}] = ps[i]
		}
	}
	return arcs, labels
}

// refApplyDelta is ApplyDelta's reference semantics, written as plainly
// as possible: the batch checked under every rule, applied in input order
// to a map of the parent's arcs and a copy of its labels, and the result
// rebuilt by a Builder in forward-CSR order. ok is false when the batch
// must be rejected.
func refApplyDelta(g *Graph, d Delta) (want *Graph, res DeltaResult, ok bool) {
	if d.Empty() {
		return nil, res, false
	}
	n := NodeID(g.N())
	arcs, labels := arcsOf(g)
	named := map[Arc]bool{}
	for _, e := range d.Edges {
		a := Arc{From: e.From, To: e.To}
		switch {
		case e.From < 0 || e.From >= n || e.To < 0 || e.To >= n,
			e.Remove && e.P != 0,
			!e.Remove && (e.P <= 0 || e.P > 1),
			named[a]:
			return nil, res, false
		}
		named[a] = true
	}
	for _, e := range d.Edges {
		a := Arc{From: e.From, To: e.To}
		old, exists := arcs[a]
		switch {
		case e.Remove && !exists:
			return nil, res, false
		case e.Remove:
			delete(arcs, a)
			res.EdgesRemoved++
		case !exists:
			arcs[a] = e.P
			res.EdgesAdded++
		case old != e.P:
			arcs[a] = e.P
			res.EdgesUpdated++
		default:
			continue
		}
		res.TouchedArcs = append(res.TouchedArcs, a)
	}
	for _, gd := range d.Groups {
		if gd.Node < 0 || gd.Node >= n || gd.Group < 0 {
			return nil, res, false
		}
		if labels[gd.Node] != gd.Group {
			labels[gd.Node] = gd.Group
			res.GroupsChanged++
		}
	}
	want, err := rebuildCSR(int(n), labels, arcs)
	if err != nil {
		return nil, res, false
	}
	slices.SortFunc(res.TouchedArcs, cmpArc)
	for _, a := range res.TouchedArcs {
		res.TouchedHeads = append(res.TouchedHeads, a.To)
	}
	slices.Sort(res.TouchedHeads)
	res.TouchedHeads = slices.Compact(res.TouchedHeads)
	return want, res, true
}

// checkApplyDelta applies d to g and holds the result to the reference:
// the same accept or reject, a snapshot deep-equal to the Builder rebuild,
// the same DeltaResult, and a receiver still deep-equal to its own
// pre-apply rebuild. It returns the new snapshot, or nil on rejection.
func checkApplyDelta(t *testing.T, g *Graph, d Delta) *Graph {
	t.Helper()
	arcs, labels := arcsOf(g)
	before, err := rebuildCSR(g.N(), labels, arcs)
	if err != nil {
		t.Fatalf("rebuilding the receiver: %v", err)
	}
	got, res, err := g.ApplyDelta(d)
	want, wantRes, ok := refApplyDelta(g, d)
	if !reflect.DeepEqual(g, before) {
		t.Fatalf("ApplyDelta(%+v) modified its receiver", d)
	}
	if (err == nil) != ok {
		t.Fatalf("ApplyDelta(%+v): err = %v, reference accepts = %v", d, err, ok)
	}
	if !ok {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ApplyDelta(%+v) differs from the Builder rebuild:\n got %+v\nwant %+v", d, got, want)
	}
	if !reflect.DeepEqual(*res, wantRes) {
		t.Fatalf("ApplyDelta(%+v) result = %+v, want %+v", d, *res, wantRes)
	}
	return got
}

// deltaBytes reads a generated or fuzzed input one byte at a time, zeros
// once exhausted.
type deltaBytes []byte

func (b *deltaBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeDeltaCase turns bytes into a graph of at most 12 nodes in 1–3
// dense groups, its arcs fed to the Builder in forward-CSR order, and a
// delta mixing adds, re-weights, no-op restatements, removals, removals
// of missing arcs, duplicate arcs, malformed entries and relabels (some
// of which empty a group).
func decodeDeltaCase(data []byte) (*Graph, Delta) {
	in := deltaBytes(data)
	n := 1 + in.next()%12
	k := 1 + in.next()%min(3, n)
	labels := make([]int, n)
	for v := range labels {
		labels[v] = v
		if v >= k {
			labels[v] = in.next() % k
		}
	}
	b := NewBuilder(n)
	b.SetGroups(labels)
	var existing []EdgeDelta
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if c := in.next(); c%4 == 0 {
				e := EdgeDelta{From: NodeID(u), To: NodeID(v), P: deltaProbs[(c/4)%len(deltaProbs)]}
				b.AddEdge(e.From, e.To, e.P)
				existing = append(existing, e)
			}
		}
	}
	node := func() NodeID { return NodeID(in.next() % n) }
	prob := func() float64 { return deltaProbs[in.next()%len(deltaProbs)] }
	var d Delta
	for i, edges := 0, in.next()%8; i < edges; i++ {
		e := EdgeDelta{From: node(), To: node(), P: prob()} // usually an add
		switch kind := in.next() % 32; {
		case kind < 8 && len(existing) > 0: // re-weight
			e = existing[in.next()%len(existing)]
			e.P = prob()
		case kind < 12 && len(existing) > 0: // no-op restatement
			e = existing[in.next()%len(existing)]
		case kind < 18 && len(existing) > 0: // removal
			e = existing[in.next()%len(existing)]
			e.P, e.Remove = 0, true
		case kind < 20: // removal, usually of a missing arc
			e.P, e.Remove = 0, true
		case kind < 21 && len(d.Edges) > 0: // the same arc twice
			e = d.Edges[in.next()%len(d.Edges)]
		case kind == 31: // malformed
			switch in.next() % 5 {
			case 0:
				e.P = 0
			case 1:
				e.P = 1.5
			case 2:
				e.Remove = true
			case 3:
				e.From = -1
			case 4:
				e.To = NodeID(n)
			}
		}
		d.Edges = append(d.Edges, e)
	}
	for i, groups := 0, in.next()%4; i < groups; i++ {
		gd := GroupDelta{Node: node(), Group: in.next() % (k + 1)}
		if in.next()%32 == 31 { // malformed
			switch in.next() % 3 {
			case 0:
				gd.Group = -1
			case 1:
				gd.Node = NodeID(n)
			case 2:
				gd.Group = k + 1 // sparse
			}
		}
		d.Groups = append(d.Groups, gd)
	}
	return b.MustBuild(), d
}

// inverseDelta undoes d on g: adds become removals, removals and
// re-weights restore the old probability, relabels restore the old label.
func inverseDelta(g *Graph, d Delta) Delta {
	var inv Delta
	for _, e := range d.Edges {
		if p, ok := edgeProb(g, e.From, e.To); ok {
			inv.Edges = append(inv.Edges, EdgeDelta{From: e.From, To: e.To, P: p})
		} else {
			inv.Edges = append(inv.Edges, EdgeDelta{From: e.From, To: e.To, Remove: true})
		}
	}
	restored := map[NodeID]bool{}
	for _, gd := range d.Groups {
		if !restored[gd.Node] {
			restored[gd.Node] = true
			inv.Groups = append(inv.Groups, GroupDelta{Node: gd.Node, Group: g.Group(gd.Node)})
		}
	}
	return inv
}

// checkDeltaCase decodes a case, holds ApplyDelta to its reference, and
// checks that the inverse of an accepted delta gives back the original
// graph. It reports whether the delta was accepted.
func checkDeltaCase(t *testing.T, data []byte) bool {
	t.Helper()
	g, d := decodeDeltaCase(data)
	g2 := checkApplyDelta(t, g, d)
	if g2 == nil {
		return false
	}
	inv := inverseDelta(g, d)
	if g3 := checkApplyDelta(t, g2, inv); !reflect.DeepEqual(g3, g) {
		t.Fatalf("delta %+v then inverse %+v did not give back the original graph", d, inv)
	}
	return true
}

// TestApplyDeltaMatchesRebuild runs checkDeltaCase on random bytes: every
// accepted snapshot must deep-equal a Builder rebuild in forward-CSR
// order, ExpectedLiveEdges included, and leave its receiver as it was.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	rng := xrand.New(18)
	data := make([]byte, 256)
	accepted := 0
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		if checkDeltaCase(t, data) {
			accepted++
		}
	}
	if accepted < trials/4 {
		t.Fatalf("only %d of %d random deltas were accepted; the generator no longer exercises the merge", accepted, trials)
	}
}

// FuzzApplyDelta is checkDeltaCase on fuzzed bytes.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 1, 0, 4, 0, 1, 2, 3, 0, 8, 1, 1, 1, 1, 1, 0, 4, 1, 1, 1, 3, 1, 2, 2, 3, 3, 4, 6, 1, 3, 1})
	f.Add([]byte{3, 1, 0, 0, 8, 0, 0, 12, 0, 0, 0, 2, 0, 1, 2, 1, 0, 1, 2, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkDeltaCase(t, data) })
}
