package ris

import "fairtcim/internal/graph"

// DefaultRefreshThreshold is the dirty fraction above which Refresh gives
// up on incremental maintenance and rebuilds the whole pool: past this
// point the reassembly bookkeeping costs more than it saves.
const DefaultRefreshThreshold = 0.75

// RefreshStats reports how much of the pool an incremental refresh
// actually resampled.
type RefreshStats struct {
	// Refreshed is the number of RR sets resampled under the new graph.
	Refreshed int
	// Retained is the number of RR sets carried over unchanged.
	Retained int
	// DirtyFraction is Refreshed over the total pool size, before the
	// full-rebuild threshold was applied.
	DirtyFraction float64
	// FullRebuild reports that the whole pool was resampled from scratch —
	// either the dirty fraction crossed the threshold, or the delta changed
	// the graph's shape (node count or group labels), which invalidates
	// every root draw.
	FullRebuild bool
}

// Refresh incrementally migrates the collection to newG, a successor
// snapshot of the sampled graph in which only the edges with heads in
// touchedHeads changed (added, removed, or re-weighted). The receiver is
// not modified.
//
// Correctness rests on the reverse-BFS structure: sampling an RR set only
// examines the in-edges of nodes it visits, so a set that contains no
// changed edge's head never observed a changed coin and remains a valid
// draw under newG. Exactly the sets containing a touched head — found in
// O(Σ index lists) via the inverted node→sets index — are resampled with
// fresh roots and fresh coins from seed. Callers should derive seed from
// the original sampling seed mixed with the new graph version so refresh
// streams never replay the coins that selected the dirty sets.
//
// Retention conditions each surviving slot on avoiding the touched heads,
// so the refreshed pool slightly underweights sets through the changed
// region (second order in the dirty fraction). The threshold bounds that
// drift: when the dirty fraction exceeds it (<=0 means
// DefaultRefreshThreshold), or when the delta changed node count or group
// labels, Refresh falls back to a full resample under seed.
func (c *Collection) Refresh(newG *graph.Graph, touchedHeads []graph.NodeID, seed int64, parallelism int, threshold float64, cancel <-chan struct{}) (*Collection, RefreshStats, error) {
	if threshold <= 0 {
		threshold = DefaultRefreshThreshold
	}
	total := c.NumSets()
	full := func(fraction float64) (*Collection, RefreshStats, error) {
		nc, err := SampleCancel(newG, c.tau, c.poolSize, seed, parallelism, cancel)
		if err != nil {
			return nil, RefreshStats{}, err
		}
		return nc, RefreshStats{Refreshed: total, DirtyFraction: fraction, FullRebuild: true}, nil
	}
	if newG.N() != c.g.N() || newG.NumGroups() != len(c.poolSize) {
		return full(1)
	}
	for v := 0; v < c.g.N(); v++ {
		if c.g.Group(graph.NodeID(v)) != newG.Group(graph.NodeID(v)) {
			return full(1)
		}
	}

	// A set is dirty iff it contains a touched head.
	dirty := make([]uint64, (total+63)/64)
	dirtyCount := 0
	for _, w := range touchedHeads {
		if w < 0 || int(w) >= c.g.N() {
			continue
		}
		for _, id := range c.refs[c.off[w]:c.off[w+1]] {
			word, bit := uint32(id)>>6, uint64(1)<<(uint32(id)&63)
			if dirty[word]&bit == 0 {
				dirty[word] |= bit
				dirtyCount++
			}
		}
	}
	fraction := float64(dirtyCount) / float64(total)
	if fraction > threshold {
		return full(fraction)
	}
	stats := RefreshStats{Refreshed: dirtyCount, Retained: total - dirtyCount, DirtyFraction: fraction}
	if dirtyCount == 0 {
		// Nothing to resample; rebind the index to the new snapshot.
		nc := *c
		nc.g = newG
		return &nc, stats, nil
	}

	// Reconstruct retained set contents from the inverted index: refs is a
	// flat multiset of (node, set) pairs, so one pass counts lengths and a
	// second scatters nodes into a shared arena.
	counts := make([]int32, total)
	for _, id := range c.refs {
		if dirty[uint32(id)>>6]&(1<<(uint32(id)&63)) == 0 {
			counts[id]++
		}
	}
	starts := make([]int32, total+1)
	for i, cnt := range counts {
		starts[i+1] = starts[i] + cnt
	}
	arena := make([]graph.NodeID, starts[total])
	fill := make([]int32, total)
	copy(fill, starts[:total])
	for v := 0; v < c.g.N(); v++ {
		for _, id := range c.refs[c.off[v]:c.off[v+1]] {
			if dirty[uint32(id)>>6]&(1<<(uint32(id)&63)) == 0 {
				arena[fill[id]] = graph.NodeID(v)
				fill[id]++
			}
		}
	}
	sets := make([][]graph.NodeID, total)
	dirtyIDs := make([]int32, 0, dirtyCount)
	for i := range int32(total) {
		if dirty[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 {
			dirtyIDs = append(dirtyIDs, i)
		} else {
			sets[i] = arena[starts[i]:starts[i+1]]
		}
	}

	// Resample the dirty sets under newG with fresh roots and coins, then
	// reassemble the inverted index exactly as SampleCancel does.
	off, refs, err := drawAndIndex(newG, c.tau, c.base, sets, dirtyIDs, seed, parallelism, cancel)
	if err != nil {
		return nil, RefreshStats{}, err
	}

	return &Collection{
		g:        newG,
		tau:      c.tau,
		poolSize: append([]int(nil), c.poolSize...),
		base:     c.base,
		off:      off,
		refs:     refs,
	}, stats, nil
}
