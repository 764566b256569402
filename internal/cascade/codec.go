package cascade

import (
	"fmt"

	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
)

// WorldCodecKind and WorldCodecVersion identify a live-edge world-set
// payload inside a persist frame. The codec reads and writes exactly this
// version: a frame stamped with any other one is rejected by
// persist.Decode as a mismatch, which a cache treats as a cold miss.
const (
	WorldCodecKind    = "wrld"
	WorldCodecVersion = 2
)

// EncodeWorlds flattens a world set into the codec's payload: the world
// count, then per world each node's surviving out-degree as a varint
// followed by its targets as a zigzag delta stream. Out-lists inherit the
// source ordering (CSR order for IC, ascending fill order for LT), so
// deltas are small and mostly positive — the zigzag encoding keeps the
// occasional backward gap cheap instead of fatal. Worlds are graph-shaped
// but self-contained; persistence binds the payload to the source graph
// through the frame's fingerprint. The payload is sized first, so it takes
// one allocation.
func EncodeWorlds(worlds []*World) []byte {
	var e persist.Enc
	e.Grow(worldsPayloadLen(worlds))
	e.Uvarint(uint64(len(worlds)))
	for _, w := range worlds {
		n := w.N()
		e.Uvarint(uint64(n))
		for v := 0; v < n; v++ {
			e.Uvarint(uint64(w.offsets[v+1] - w.offsets[v]))
		}
		for v := 0; v < n; v++ {
			prev := int64(0)
			for _, t := range w.Out(graph.NodeID(v)) {
				e.Svarint(int64(t) - prev)
				prev = int64(t)
			}
		}
	}
	return e.Bytes()
}

// worldsPayloadLen returns the exact length of EncodeWorlds' payload.
func worldsPayloadLen(worlds []*World) int {
	size := persist.UvarintLen(uint64(len(worlds)))
	for _, w := range worlds {
		n := w.N()
		size += persist.UvarintLen(uint64(n))
		for v := 0; v < n; v++ {
			size += persist.UvarintLen(uint64(w.offsets[v+1] - w.offsets[v]))
		}
		for v := 0; v < n; v++ {
			prev := int64(0)
			for _, t := range w.Out(graph.NodeID(v)) {
				size += persist.SvarintLen(int64(t) - prev)
				prev = int64(t)
			}
		}
	}
	return size
}

// DecodeWorlds reconstructs a world set over an n-node graph from a
// payload written by EncodeWorlds, re-validating every CSR invariant so a
// forged payload cannot produce out-of-range traversals or silently wrong
// estimates. Offsets are rebuilt from the degree stream, so monotonicity
// holds by construction; the degree and target ranges are checked.
func DecodeWorlds(payload []byte, n int) ([]*World, error) {
	d := persist.NewDec(payload)
	r := d.UvarintLen()
	if err := d.Err(); err != nil {
		return nil, err
	}
	worlds := make([]*World, r)
	for i := range worlds {
		wn := int(d.Uvarint())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if wn != n {
			return nil, fmt.Errorf("cascade: decoded world %d over %d nodes, graph has %d", i, wn, n)
		}
		offsets := make([]int32, n+1)
		for v := 0; v < n; v++ {
			deg := d.Uvarint()
			if d.Err() != nil {
				return nil, d.Err()
			}
			// Each surviving edge takes at least one payload byte, so a
			// forged degree larger than the remaining payload fails here
			// instead of driving a huge allocation below.
			if deg > uint64(len(payload)) {
				return nil, fmt.Errorf("%w: world %d node %d degree %d exceeds payload", persist.ErrCorrupt, i, v, deg)
			}
			offsets[v+1] = offsets[v] + int32(deg)
			if offsets[v+1] < offsets[v] {
				return nil, fmt.Errorf("%w: world %d edge count overflow at node %d", persist.ErrCorrupt, i, v)
			}
		}
		targets := make([]graph.NodeID, offsets[n])
		at := 0
		for v := 0; v < n; v++ {
			prev := int64(0)
			for k := offsets[v]; k < offsets[v+1]; k++ {
				t := prev + d.Svarint()
				if d.Err() != nil {
					return nil, d.Err()
				}
				if t < 0 || t >= int64(n) {
					return nil, fmt.Errorf("%w: world %d target %d out of range [0,%d)", persist.ErrCorrupt, i, t, n)
				}
				targets[at] = graph.NodeID(t)
				at++
				prev = t
			}
		}
		worlds[i] = &World{offsets: offsets, targets: targets}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return worlds, nil
}
