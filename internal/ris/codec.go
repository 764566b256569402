package ris

import (
	"fmt"

	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
)

// CodecKind and CodecVersion identify the Collection payload inside a
// persist frame. The codec reads and writes exactly this version: a frame
// stamped with any other one is rejected by persist.Decode as a mismatch,
// which a cache treats as a cold miss.
const (
	CodecKind    = "risc"
	CodecVersion = 2
)

// EncodePayload flattens the Collection into the codec's payload: τ, the
// per-group pool sizes, the node count, then each node's inverted index
// entry as a delta+varint stream of flat RR-set ids. Flat ids are dense
// and strictly increasing per node, so gaps are small and most encode in
// one byte. The graph itself is not serialized — persistence binds the
// payload to it through the frame's graph fingerprint — so a decoded
// Collection is the exact index that was saved, over the caller-supplied
// graph. The payload is sized first, so it takes one allocation.
func (c *Collection) EncodePayload() []byte {
	var e persist.Enc
	e.Grow(c.payloadLen())
	e.I32(c.tau)
	e.Ints(c.poolSize)
	n := len(c.off) - 1
	e.Uvarint(uint64(n))
	for v := 0; v < n; v++ {
		e.DeltaU32s(c.refs[c.off[v]:c.off[v+1]])
	}
	return e.Bytes()
}

// payloadLen returns the exact length of EncodePayload's payload.
func (c *Collection) payloadLen() int {
	n := len(c.off) - 1
	// τ (4 bytes) and the pool sizes (a length and one int64 per group).
	size := 4 + 8*(1+len(c.poolSize)) + persist.UvarintLen(uint64(n))
	for v := 0; v < n; v++ {
		size += persist.DeltaU32sLen(c.refs[c.off[v]:c.off[v+1]])
	}
	return size
}

// DecodePayload reconstructs a Collection over g from a payload written by
// EncodePayload. Every structural invariant is re-validated — group count,
// positive pool sizes, node count, and each set reference's bounds — so a
// forged payload that slipped past the frame checks still cannot produce
// out-of-range indexing or silently wrong estimates. persist.Dec.DeltaU32s
// enforces that each node's refs are strictly increasing and bounded by
// the total set count, which is exactly the Collection invariant.
func DecodePayload(payload []byte, g *graph.Graph) (*Collection, error) {
	d := persist.NewDec(payload)
	tau := d.I32()
	poolSize := d.Ints()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if tau < 0 {
		return nil, fmt.Errorf("ris: decoded negative deadline %d", tau)
	}
	if len(poolSize) != g.NumGroups() {
		return nil, fmt.Errorf("ris: decoded %d pool sizes for %d groups", len(poolSize), g.NumGroups())
	}
	for i, s := range poolSize {
		if s <= 0 {
			return nil, fmt.Errorf("ris: decoded pool size %d for group %d", s, i)
		}
	}
	base := groupBases(poolSize)
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n != g.N() {
		return nil, fmt.Errorf("ris: decoded index over %d nodes, graph has %d", n, g.N())
	}
	total := base[len(base)-1]
	off := make([]int32, n+1)
	var refs, scratch []int32
	for v := 0; v < n; v++ {
		scratch = d.DeltaU32s(scratch[:0], total)
		if err := d.Err(); err != nil {
			return nil, err
		}
		refs = append(refs, scratch...)
		off[v+1] = int32(len(refs))
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return &Collection{g: g, tau: tau, poolSize: poolSize, base: base, off: off, refs: refs}, nil
}
