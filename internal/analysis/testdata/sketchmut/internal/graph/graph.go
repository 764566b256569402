// Package graph is the sketchmut fixture's stand-in for the real CSR
// graph: same type name, same allowlisted constructors, same aliasing
// accessor shape.
package graph

// NodeID mirrors the real graph's node identifier.
type NodeID int32

// Graph is a CSR snapshot, immutable once published.
type Graph struct {
	outOff  []int32
	targets []NodeID
	thresh  [][]uint64 // per-arc values in pages of 128 nodes
	groups  []int32
}

// Build is the constructor: field writes here are allowlisted.
func Build(n int) *Graph {
	g := &Graph{}
	g.outOff = make([]int32, n+1) // ok: Build is on the allowlist
	g.targets = nil               // ok
	return g
}

// ApplyDelta rebuilds via the value-copy idiom: field stores land in a
// fresh copy before publication, and the function is allowlisted anyway.
// An index write through the copy still lands in g's array.
func (g *Graph) ApplyDelta(off []int32) *Graph {
	ng := *g
	ng.outOff = off   // ok: allowlisted + value copy
	ng.targets[0] = 1 // want `index write to fairtcim/internal/graph\.Graph field targets through a value copy lands in the array it shares with the source snapshot`
	return &ng
}

// OutCSR returns slices aliasing the snapshot's backing arrays.
func (g *Graph) OutCSR() ([]int32, []NodeID) { return g.outOff, g.targets }

// InThresholds returns v's row of its page: a window into an array that
// every snapshot sharing the page sees.
func (g *Graph) InThresholds(v NodeID) []uint64 {
	base := g.outOff[v&^127]
	return g.thresh[v>>7][g.outOff[v]-base : g.outOff[v+1]-base]
}

// OutPageThresholds returns the page holding v from v's first arc on,
// and the first node past that page.
func (g *Graph) OutPageThresholds(v NodeID) ([]uint64, NodeID) {
	return g.thresh[v>>7][g.outOff[v]-g.outOff[v&^127]:], v | 127 + 1
}

// GroupSizes aliases the group index.
func (g *Graph) GroupSizes() []int32 { return g.groups }

// poison mutates a published snapshot: both the field reassignment and
// the in-place element store are violations.
func poison(g *Graph) {
	g.groups = nil  // want `write to fairtcim/internal/graph\.Graph field groups outside its construction allowlist`
	g.outOff[0] = 1 // want `write to fairtcim/internal/graph\.Graph field outOff outside its construction allowlist`
}

// copyConstruct builds a fresh value copy: direct field stores are
// construction, but an index write still lands in the shared array.
func copyConstruct(g *Graph) Graph {
	ng := *g
	ng.groups = nil  // ok: direct store into a local value copy
	ng.outOff[0] = 1 // want `write to fairtcim/internal/graph\.Graph field outOff outside its construction allowlist`
	return ng
}
