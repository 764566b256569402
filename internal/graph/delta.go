package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fairtcim/internal/xrand"
)

// Dynamic-graph deltas. A Graph is immutable; evolving a network means
// applying a batch of edge/weight/group changes and getting a *new* Graph
// back while the old snapshot stays fully readable — in-flight traversals
// and samplers holding the old pointer are never perturbed. The returned
// DeltaResult names exactly what changed, in the form downstream sketch
// maintenance needs: the heads of changed edges drive incremental RR-set
// refresh (a reverse BFS only examines an edge u→w after visiting w), and
// the full arcs drive live-edge world invalidation accounting.

// Arc identifies one directed edge by its endpoints.
type Arc struct {
	From, To NodeID
}

// EdgeDelta is one edge change: an upsert of u→v to probability P in
// (0,1], or a removal when Remove is set (P must then be zero).
type EdgeDelta struct {
	From   NodeID  `json:"from"`
	To     NodeID  `json:"to"`
	P      float64 `json:"p,omitempty"`
	Remove bool    `json:"remove,omitempty"`
}

// GroupDelta moves one node to a new group label.
type GroupDelta struct {
	Node  NodeID `json:"node"`
	Group int    `json:"group"`
}

// Delta is one batch of graph changes, applied atomically: either the
// whole batch validates and produces a new snapshot, or the graph is
// unchanged.
type Delta struct {
	Edges  []EdgeDelta  `json:"edges,omitempty"`
	Groups []GroupDelta `json:"groups,omitempty"`
}

// Empty reports whether the delta contains no changes at all.
func (d Delta) Empty() bool { return len(d.Edges) == 0 && len(d.Groups) == 0 }

// DeltaResult reports what ApplyDelta actually changed. An upsert that
// restates an edge's existing probability is a no-op and is counted
// nowhere — it neither dirties RR sets nor invalidates worlds.
type DeltaResult struct {
	EdgesAdded    int
	EdgesUpdated  int
	EdgesRemoved  int
	GroupsChanged int

	// TouchedArcs are the directed edges whose presence or probability
	// changed, deduplicated and sorted by (From, To).
	TouchedArcs []Arc
	// TouchedHeads are the distinct head nodes (To endpoints) of
	// TouchedArcs, sorted ascending — the dirty frontier for reverse-
	// reachable sketch maintenance.
	TouchedHeads []NodeID
}

// ApplyDelta validates and applies a batch of changes, returning the new
// immutable snapshot alongside a DeltaResult. g itself is never modified.
// Rules: endpoints must be existing nodes (deltas do not add nodes),
// upsert probabilities must lie in (0,1], removals must name existing
// edges, group labels must stay dense with every group non-empty, and a
// batch may not name the same edge twice.
//
// The new snapshot costs what the batch changes: it shares every array
// the batch leaves unchanged with g. A weight-only batch copies the two
// page tables and just the probability and threshold pages that hold a
// re-weighted arc, and shares every other page. A batch that adds or
// removes arcs merges its sorted changes into each direction's CSR in one
// pass; the group index is rebuilt only when a label actually changes. The
// result is identical to a Builder rebuild of the new edge set fed in
// forward-CSR order, ExpectedLiveEdges included.
func (g *Graph) ApplyDelta(d Delta) (*Graph, *DeltaResult, error) {
	if d.Empty() {
		return nil, nil, fmt.Errorf("graph: empty delta")
	}
	n := NodeID(g.N())
	changes := make([]arcChange, len(d.Edges))
	for i, e := range d.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, nil, fmt.Errorf("graph: delta edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.Remove {
			if e.P != 0 {
				return nil, nil, fmt.Errorf("graph: delta removes edge %d->%d but also sets p=%v", e.From, e.To, e.P)
			}
		} else if e.P <= 0 || e.P > 1 {
			return nil, nil, fmt.Errorf("graph: delta edge %d->%d probability %v outside (0,1]", e.From, e.To, e.P)
		}
		changes[i] = arcChange{row: e.From, col: e.To, p: e.P, remove: e.Remove}
	}
	// Sorted by (From, To), a duplicate sits next to its twin and the
	// changes come in forward-CSR order.
	slices.SortFunc(changes, byRowCol)
	for i := 1; i < len(changes); i++ {
		if byRowCol(changes[i-1], changes[i]) == 0 {
			return nil, nil, fmt.Errorf("graph: delta names edge %d->%d twice", changes[i].row, changes[i].col)
		}
	}

	// Locate each change in its forward row. No-op restatements drop out
	// here; what is left are the edits, still in forward-CSR order.
	res := &DeltaResult{}
	edits := changes[:0]
	for _, c := range changes {
		pos, found := locate(g.outOffsets, g.outTargets, c.row, c.col)
		_, probs := g.OutEdges(c.row)
		switch {
		case c.remove && !found:
			return nil, nil, fmt.Errorf("graph: delta removes nonexistent edge %d->%d", c.row, c.col)
		case c.remove:
			res.EdgesRemoved++
		case !found:
			c.add = true
			res.EdgesAdded++
		case c.p != probs[pos-g.outOffsets[c.row]]:
			res.EdgesUpdated++
		default:
			continue
		}
		c.pos = pos
		edits = append(edits, c)
	}

	for _, gd := range d.Groups {
		if gd.Node < 0 || gd.Node >= n {
			return nil, nil, fmt.Errorf("graph: delta group change for node %d out of range [0,%d)", gd.Node, n)
		}
		if gd.Group < 0 {
			return nil, nil, fmt.Errorf("graph: delta assigns node %d negative group %d", gd.Node, gd.Group)
		}
	}
	// Labels are copied only once some group delta changes one; until
	// then the current label is g's.
	var labels []int
	for _, gd := range d.Groups {
		cur := int(g.groups[gd.Node])
		if labels != nil {
			cur = labels[gd.Node]
		}
		if cur == gd.Group {
			continue
		}
		if labels == nil {
			labels = make([]int, n)
			for v, l := range g.groups {
				labels[v] = int(l)
			}
		}
		labels[gd.Node] = gd.Group
		res.GroupsChanged++
	}

	out := *g
	if labels != nil {
		if err := out.buildGroupIndex(labels); err != nil {
			return nil, nil, err
		}
	}
	m := g.M() + res.EdgesAdded - res.EdgesRemoved
	if m > math.MaxInt32 {
		// CSR offsets are int32; shard graphs beyond 2^31-1 directed edges.
		return nil, nil, fmt.Errorf("graph: %d edges exceed the int32 CSR offset range", m)
	}
	if len(edits) > 0 {
		res.TouchedArcs = make([]Arc, len(edits))
		for i, c := range edits {
			res.TouchedArcs[i] = Arc{From: c.row, To: c.col}
		}
		res.TouchedHeads = headsOf(res.TouchedArcs)
	}

	switch {
	case len(edits) == 0:
	case res.EdgesAdded == 0 && res.EdgesRemoved == 0:
		// Re-weights only: the offsets and targets stay shared, and so
		// does every page no edit lands in.
		out.outPages = reweightPages(g.outOffsets, g.outPages, edits)
		g.reverseEdits(edits)
		out.inPages = reweightPages(g.inOffsets, g.inPages, edits)
	default:
		out.outOffsets, out.outTargets, out.outPages =
			mergeCSR(g.outOffsets, g.outTargets, g.outPages, edits, m)
		g.reverseEdits(edits)
		out.inOffsets, out.inTargets, out.inPages =
			mergeCSR(g.inOffsets, g.inTargets, g.inPages, edits, m)
	}
	// Summed in forward-CSR order, as Build sums a Builder fed that way.
	sum := 0.0
	for _, page := range out.outPages {
		for _, p := range page.probs {
			sum += p
		}
	}
	out.sumProbs = sum
	return &out, res, nil
}

// reverseEdits re-keys edits located in g's forward CSR for its reverse
// CSR: each arc keyed by its head, in (To, From) order, and located there.
func (g *Graph) reverseEdits(edits []arcChange) {
	for i := range edits {
		edits[i].row, edits[i].col = edits[i].col, edits[i].row
	}
	slices.SortFunc(edits, byRowCol)
	for i := range edits {
		edits[i].pos, _ = locate(g.inOffsets, g.inTargets, edits[i].row, edits[i].col)
	}
}

// arcChange is one edge change of a batch, in one direction's CSR: row
// and col are its endpoints there (From and To in the forward CSR, To and
// From in the reverse one), and pos is the index of the arc in that CSR's
// arrays, or for an added arc the index it is inserted before.
type arcChange struct {
	row, col NodeID
	p        float64
	remove   bool
	add      bool
	pos      int32
}

func byRowCol(a, b arcChange) int {
	if c := cmp.Compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.col, b.col)
}

// locate binary-searches row's sorted slice of one direction's CSR for
// col. It returns the arc's index and true, or the index where it would be
// inserted and false.
func locate(offsets []int32, targets []NodeID, row, col NodeID) (int32, bool) {
	lo, hi := offsets[row], offsets[row+1]
	i, found := slices.BinarySearch(targets[lo:hi], col)
	return lo + int32(i), found
}

// reweightPages returns one direction's page table with the located
// re-weights, sorted by (row, col), applied: each page an edit lands in is
// copied and patched, and every other page is shared with pages. Each copy
// is an allocation of its own, so a snapshot keeps alive only its current
// pages. Copying a batch's pages into one shared buffer would make a
// single current page keep its superseded neighbours alive: under steady
// churn of 8-arc re-weights on the instagram stand-in, the current
// snapshot then pinned about three times the flat arrays.
func reweightPages(offsets []int32, pages []arcPage, edits []arcChange) []arcPage {
	out := slices.Clone(pages)
	for i, c := range edits {
		p := c.row >> pageShift
		if i == 0 || p != edits[i-1].row>>pageShift {
			out[p] = arcPage{probs: slices.Clone(pages[p].probs), thresh: slices.Clone(pages[p].thresh)}
		}
		at := c.pos - offsets[p<<pageShift]
		out[p].probs[at], out[p].thresh[at] = c.p, xrand.Threshold53(c.p)
	}
	return out
}

// mergeCSR returns one direction's CSR with the located edits, sorted by
// (row, col), applied: runs of untouched arcs are copied in bulk with their
// thresholds, added and re-weighted arcs get fresh thresholds, and removed
// arcs are skipped. The new values fill one flat array per kind, sliced
// into pages as Build does. m is the new arc count.
func mergeCSR(offsets []int32, targets []NodeID, pages []arcPage, edits []arcChange, m int) ([]int32, []NodeID, []arcPage) {
	n := len(offsets) - 1
	newOffsets := make([]int32, n+1)
	shift, e := int32(0), 0
	for v := 0; v <= n; v++ {
		for ; e < len(edits) && int(edits[e].row) < v; e++ {
			if edits[e].add {
				shift++
			} else if edits[e].remove {
				shift--
			}
		}
		newOffsets[v] = offsets[v] + shift
	}

	newTargets := make([]NodeID, m)
	newProbs := make([]float64, m)
	newThresh := make([]uint64, m)
	w, e := int32(0), 0 // write index in the new arrays, next edit
	for p, page := range pages {
		base := offsets[p<<pageShift]
		src := targets[base : base+int32(len(page.probs))]
		r := int32(0) // read index in the page
		// keep copies the page's arcs [r, to) as they are.
		keep := func(to int32) {
			copy(newTargets[w:], src[r:to])
			copy(newProbs[w:], page.probs[r:to])
			copy(newThresh[w:], page.thresh[r:to])
			w += to - r
			r = to
		}
		for end := NodeID(min((p+1)<<pageShift, n)); e < len(edits) && edits[e].row < end; e++ {
			c := edits[e]
			keep(c.pos - base)
			if !c.add {
				r++ // the edit replaces or removes the arc at pos
			}
			if !c.remove {
				newTargets[w], newProbs[w], newThresh[w] = c.col, c.p, xrand.Threshold53(c.p)
				w++
			}
		}
		keep(int32(len(src)))
	}
	return newOffsets, newTargets, paginate(newOffsets, newProbs, newThresh)
}

// headsOf extracts the distinct To endpoints, sorted ascending.
func headsOf(arcs []Arc) []NodeID {
	if len(arcs) == 0 {
		return nil
	}
	heads := make([]NodeID, 0, len(arcs))
	for _, a := range arcs {
		heads = append(heads, a.To)
	}
	slices.Sort(heads)
	return slices.Compact(heads)
}
