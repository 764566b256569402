// Package graph provides the social-network substrate for fairtcim: a
// directed graph with per-edge activation probabilities and per-node group
// labels (the "socially salient groups" of the paper).
//
// Graphs are immutable after construction; build them with a Builder. An
// undirected social tie is represented as two directed edges, matching the
// paper's convention (§3.1).
//
// # Storage layout
//
// Adjacency is stored in compressed-sparse-row (CSR) form: per direction,
// one offsets array and one targets array, so a whole traversal touches
// contiguous memory instead of one slice header and one heap block per
// node. Each arc's activation probability and its precomputed Bernoulli
// threshold live in pages over fixed node ranges: page p holds the values
// of the arcs of nodes [p·128, (p+1)·128), in CSR order, so every row lies
// inside one page and is read as one subslice (OutEdges, InThresholds).
// Group membership is indexed as a CSR too (group→members), making
// GroupMembers an O(1) subslice instead of an O(N) scan. Accessors return
// subslices of the shared arrays; callers must not modify them.
//
// Snapshots share arrays. WithGroups shares the whole adjacency with its
// source, and ApplyDelta shares every array a batch leaves unchanged: a
// weight-only update copies the two page tables plus just the pages that
// hold a re-weighted arc, and an edge-only update keeps the group index.
// A write through an accessor slice would therefore change every snapshot
// holding that array, not just the one it was read from.
package graph

import (
	"fmt"
	"math"
	"sort"

	"fairtcim/internal/xrand"
)

// NodeID identifies a node; nodes are always the dense range [0, N).
type NodeID = int32

// Graph is an immutable directed graph with activation probabilities and
// group labels, stored in CSR arrays. The zero value is an empty graph;
// construct with a Builder.
type Graph struct {
	// Forward adjacency: out-neighbors of v are
	// outTargets[outOffsets[v]:outOffsets[v+1]], sorted ascending, with
	// matching activation probabilities and thresholds in page
	// outPages[v>>pageShift].
	outOffsets []int32
	outTargets []NodeID
	outPages   []arcPage

	// Reverse adjacency: inTargets holds the *source* of each incoming
	// edge, same layout as the forward arrays.
	inOffsets []int32
	inTargets []NodeID
	inPages   []arcPage

	groups     []int32 // group label per node, in [0, numGroups)
	numGroups  int
	groupSizes []int

	// Group→members CSR index: members of group i are
	// groupMembers[groupOffsets[i]:groupOffsets[i+1]], ascending.
	groupOffsets []int32
	groupMembers []NodeID

	sumProbs float64 // Σ edge probabilities = expected surviving IC edges
}

// A page covers pageNodes consecutive nodes: node v lies in page
// v>>pageShift. A re-weight copies both page tables whole and only the
// pages it touches, so smaller pages copy fewer arcs and larger ones a
// shorter table. On the 55,363-node instagram stand-in (~1.9 arcs per
// node) an 8-arc re-weight allocates least at 128 nodes per page: ~94 KiB,
// against ~122 KiB at 64 and 3.2 MiB for copying the arrays whole.
const (
	pageShift = 7
	pageNodes = 1 << pageShift
)

// arcPage holds the per-arc values of one page's nodes in one direction:
// each arc's activation probability and its xrand.Threshold53, which lets
// live-edge samplers run integer-only Bernoulli trials. Both run over the
// page's arcs in CSR order, from the arc at offsets[p<<pageShift] on.
type arcPage struct {
	probs  []float64
	thresh []uint64
}

// pageRow returns the bounds of v's row within the page holding v.
func pageRow(offsets []int32, v NodeID) (lo, hi int32) {
	base := offsets[v&^(pageNodes-1)]
	return offsets[v] - base, offsets[v+1] - base
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.groups) }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.outTargets) }

// OutEdges returns the out-neighbors of v and their activation
// probabilities as parallel subslices, sorted by target. The slices are
// shared; callers must not modify them.
func (g *Graph) OutEdges(v NodeID) ([]NodeID, []float64) {
	lo, hi := pageRow(g.outOffsets, v)
	return g.OutNeighbors(v), g.outPages[v>>pageShift].probs[lo:hi]
}

// InEdges returns the sources of v's incoming edges and their activation
// probabilities as parallel subslices, sorted by source. The slices are
// shared; callers must not modify them.
func (g *Graph) InEdges(v NodeID) ([]NodeID, []float64) {
	lo, hi := pageRow(g.inOffsets, v)
	return g.InNeighbors(v), g.inPages[v>>pageShift].probs[lo:hi]
}

// OutNeighbors returns the out-neighbors of v, ascending. The slice is
// shared; callers must not modify it.
func (g *Graph) OutNeighbors(v NodeID) []NodeID {
	return g.outTargets[g.outOffsets[v]:g.outOffsets[v+1]]
}

// InNeighbors returns the sources of v's incoming edges, ascending. The
// slice is shared; callers must not modify it.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	return g.inTargets[g.inOffsets[v]:g.inOffsets[v+1]]
}

// OutCSR exposes the raw forward CSR arrays (offsets, targets) for hot
// loops that stream the whole adjacency without per-node calls. Both are
// shared; callers must not modify them.
func (g *Graph) OutCSR() ([]int32, []NodeID) {
	return g.outOffsets, g.outTargets
}

// InCSR exposes the raw reverse CSR arrays; see OutCSR.
func (g *Graph) InCSR() ([]int32, []NodeID) {
	return g.inOffsets, g.inTargets
}

// OutPageThresholds returns the xrand.Threshold53 of the out-edges of the
// nodes v, v+1, …, end−1, where end is the first node past the page
// holding v, as one slice in CSR order: entry i belongs to the arc at
// OutCSR offset offsets[v]+i. They drive integer-only Bernoulli trials in
// the world samplers, which walk every node and so read a page's
// thresholds contiguously, with one lookup per page instead of one per
// row. Shared; callers must not modify.
func (g *Graph) OutPageThresholds(v NodeID) (thresh []uint64, end NodeID) {
	p := v >> pageShift
	lo, _ := pageRow(g.outOffsets, v)
	return g.outPages[p].thresh[lo:], min((p+1)<<pageShift, NodeID(g.N()))
}

// InThresholds returns the xrand.Threshold53 of each of v's incoming
// edges, aligned with InNeighbors(v), for integer-only Bernoulli trials in
// reverse sampling. Shared; callers must not modify.
func (g *Graph) InThresholds(v NodeID) []uint64 {
	lo, hi := pageRow(g.inOffsets, v)
	return g.inPages[v>>pageShift].thresh[lo:hi]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.outOffsets[v+1] - g.outOffsets[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inOffsets[v+1] - g.inOffsets[v]) }

// ExpectedLiveEdges returns Σ_e p_e, the expected number of edges that
// survive one independent-cascade live-edge sample — the right capacity
// hint for world buffers.
func (g *Graph) ExpectedLiveEdges() float64 { return g.sumProbs }

// Group returns the group label of v.
func (g *Graph) Group(v NodeID) int { return int(g.groups[v]) }

// NumGroups returns the number of groups k. Every graph has at least one
// group; ungrouped graphs put all nodes in group 0.
func (g *Graph) NumGroups() int { return g.numGroups }

// GroupSizes returns |V_i| for every group i. The slice is shared; callers
// must not modify it.
func (g *Graph) GroupSizes() []int { return g.groupSizes }

// GroupSize returns |V_i|.
func (g *Graph) GroupSize(i int) int { return g.groupSizes[i] }

// GroupMembers returns the nodes in group i, ascending — an O(1) subslice
// of the precomputed group index. The slice is shared; callers must not
// modify it.
func (g *Graph) GroupMembers(i int) []NodeID {
	return g.groupMembers[g.groupOffsets[i]:g.groupOffsets[i+1]]
}

// Nodes returns all node ids, ascending.
func (g *Graph) Nodes() []NodeID {
	nodes := make([]NodeID, g.N())
	for v := range nodes {
		nodes[v] = NodeID(v)
	}
	return nodes
}

// WithGroups returns a copy of g with new group labels. labels must have
// length N and use the dense range [0, k). The adjacency is shared with g.
func (g *Graph) WithGroups(labels []int) (*Graph, error) {
	if len(labels) != g.N() {
		return nil, fmt.Errorf("graph: %d labels for %d nodes", len(labels), g.N())
	}
	out := *g
	if err := out.buildGroupIndex(labels); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats summarises the structure of a grouped graph; used by generators'
// tests and by the experiment harness to report dataset shape.
type Stats struct {
	N, M         int     // nodes, directed edges
	NumGroups    int     //
	GroupSizes   []int   // |V_i|
	WithinEdges  []int   // directed edges with both endpoints in group i
	AcrossEdges  int     // directed edges with endpoints in different groups
	MaxOutDegree int     //
	AvgOutDegree float64 //
}

// ComputeStats derives Stats for g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		N:          g.N(),
		M:          g.M(),
		NumGroups:  g.numGroups,
		GroupSizes: append([]int(nil), g.groupSizes...),
	}
	s.WithinEdges = make([]int, g.numGroups)
	for v := 0; v < g.N(); v++ {
		if d := g.OutDegree(NodeID(v)); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		gv := g.groups[v]
		for _, to := range g.OutNeighbors(NodeID(v)) {
			if g.groups[to] == gv {
				s.WithinEdges[gv]++
			} else {
				s.AcrossEdges++
			}
		}
	}
	if g.N() > 0 {
		s.AvgOutDegree = float64(g.M()) / float64(g.N())
	}
	return s
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// It is not safe for concurrent use.
type Builder struct {
	n      int
	groups []int
	from   []NodeID
	to     []NodeID
	p      []float64
}

// NewBuilder returns a builder for a graph with n nodes, all initially in
// group 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, groups: make([]int, n)}
}

// N returns the current number of nodes.
func (b *Builder) N() int { return b.n }

// AddNode appends a new node in group 0 and returns its id.
func (b *Builder) AddNode() NodeID {
	b.groups = append(b.groups, 0)
	b.n++
	return NodeID(b.n - 1)
}

// SetGroup assigns node v to group grp.
func (b *Builder) SetGroup(v NodeID, grp int) {
	if grp < 0 {
		panic("graph: negative group")
	}
	b.groups[v] = grp
}

// SetGroups assigns all labels at once; len(labels) must equal N.
func (b *Builder) SetGroups(labels []int) {
	if len(labels) != b.n {
		panic(fmt.Sprintf("graph: %d labels for %d nodes", len(labels), b.n))
	}
	copy(b.groups, labels)
}

// AddEdge adds the directed edge u->v with activation probability p.
func (b *Builder) AddEdge(u, v NodeID, p float64) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: probability %v out of [0,1]", p))
	}
	b.from = append(b.from, u)
	b.to = append(b.to, v)
	b.p = append(b.p, p)
}

// AddUndirected adds both directed edges u->v and v->u with probability p.
func (b *Builder) AddUndirected(u, v NodeID, p float64) {
	b.AddEdge(u, v, p)
	b.AddEdge(v, u, p)
}

// Build finalizes the graph into CSR form. Duplicate directed edges are
// rejected; self loops are allowed but pointless under IC.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{}
	if err := g.buildGroupIndex(b.groups); err != nil {
		return nil, err
	}
	if len(b.from) > math.MaxInt32 {
		// CSR offsets are int32; shard graphs beyond 2^31-1 directed edges.
		return nil, fmt.Errorf("graph: %d edges exceed the int32 CSR offset range", len(b.from))
	}
	var outProbs, inProbs []float64
	g.outOffsets, g.outTargets, outProbs = buildCSR(b.n, b.from, b.to, b.p)
	g.inOffsets, g.inTargets, inProbs = buildCSR(b.n, b.to, b.from, b.p)
	for v := 0; v < b.n; v++ {
		if dup := firstDuplicate(g.OutNeighbors(NodeID(v))); dup >= 0 {
			return nil, fmt.Errorf("graph: duplicate edge %d->%d", v, dup)
		}
	}
	for _, p := range b.p {
		g.sumProbs += p
	}
	g.outPages = paginate(g.outOffsets, outProbs, thresholds(outProbs))
	g.inPages = paginate(g.inOffsets, inProbs, thresholds(inProbs))
	return g, nil
}

func thresholds(probs []float64) []uint64 {
	t := make([]uint64, len(probs))
	for i, p := range probs {
		t[i] = xrand.Threshold53(p)
	}
	return t
}

// paginate slices one direction's flat probability and threshold arrays
// into its pages, which keep sharing the flat arrays' memory.
func paginate(offsets []int32, probs []float64, thresh []uint64) []arcPage {
	n := len(offsets) - 1
	pages := make([]arcPage, (n+pageNodes-1)>>pageShift)
	for p := range pages {
		lo, hi := offsets[p<<pageShift], offsets[min((p+1)<<pageShift, n)]
		pages[p] = arcPage{probs: probs[lo:hi:hi], thresh: thresh[lo:hi:hi]}
	}
	return pages
}

// MustBuild is Build that panics on error, for hand-constructed graphs in
// generators and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// buildCSR bucket-sorts the edge list by source into flat offsets/targets/
// probs arrays and orders each node's slice by target.
func buildCSR(n int, src, dst []NodeID, p []float64) ([]int32, []NodeID, []float64) {
	offsets := make([]int32, n+1)
	for _, u := range src {
		offsets[u+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]NodeID, len(src))
	probs := make([]float64, len(src))
	fill := make([]int32, n)
	copy(fill, offsets[:n])
	for i, u := range src {
		pos := fill[u]
		targets[pos] = dst[i]
		probs[pos] = p[i]
		fill[u]++
	}
	// One sorter serves every row: a fresh value per row would be boxed
	// into sort.Interface, one allocation per row.
	rows := &pairSorter{}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if hi-lo > 1 {
			rows.t, rows.p = targets[lo:hi], probs[lo:hi]
			sort.Sort(rows)
		}
	}
	return offsets, targets, probs
}

// pairSorter orders a (targets, probs) slice pair by target id.
type pairSorter struct {
	t []NodeID
	p []float64
}

func (s *pairSorter) Len() int           { return len(s.t) }
func (s *pairSorter) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s *pairSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.p[i], s.p[j] = s.p[j], s.p[i]
}

// buildGroupIndex validates labels (see normalizeGroups) and sets g's
// per-node labels, group sizes and group→members CSR from them. Build,
// WithGroups and ApplyDelta all derive the group arrays here.
func (g *Graph) buildGroupIndex(labels []int) error {
	groups, sizes, k, err := normalizeGroups(labels)
	if err != nil {
		return err
	}
	offsets := make([]int32, k+1)
	for i, size := range sizes {
		offsets[i+1] = offsets[i] + int32(size)
	}
	members := make([]NodeID, len(groups))
	fill := make([]int32, k)
	copy(fill, offsets[:k])
	for v, grp := range groups {
		members[fill[grp]] = NodeID(v)
		fill[grp]++
	}
	g.groups, g.numGroups, g.groupSizes = groups, k, sizes
	g.groupOffsets, g.groupMembers = offsets, members
	return nil
}

func firstDuplicate(targets []NodeID) NodeID {
	for i := 1; i < len(targets); i++ {
		if targets[i] == targets[i-1] {
			return targets[i]
		}
	}
	return -1
}

// normalizeGroups validates labels and returns the compact representation.
// Labels must use the dense range [0, k) with every group non-empty, except
// that an empty graph has zero groups... we define an empty graph to have
// one (empty) group for uniformity.
func normalizeGroups(labels []int) (groups []int32, sizes []int, k int, err error) {
	k = 1
	for _, l := range labels {
		if l < 0 {
			return nil, nil, 0, fmt.Errorf("graph: negative group label %d", l)
		}
		if l+1 > k {
			k = l + 1
		}
	}
	sizes = make([]int, k)
	groups = make([]int32, len(labels))
	for v, l := range labels {
		groups[v] = int32(l)
		sizes[l]++
	}
	for i, s := range sizes {
		if s == 0 && len(labels) > 0 {
			return nil, nil, 0, fmt.Errorf("graph: group %d is empty (labels must be dense)", i)
		}
	}
	return groups, sizes, k, nil
}
