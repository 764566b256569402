package ris

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
)

// estimatesEqual walks a fixed greedy-ish path on both collections and
// fails the test on the first differing estimate.
func estimatesEqual(t *testing.T, col, back *Collection, probe []graph.NodeID) {
	t.Helper()
	if back.Tau() != col.Tau() || back.NumSets() != col.NumSets() || back.NumRefs() != col.NumRefs() {
		t.Fatalf("shape changed: tau %d->%d, sets %d->%d, refs %d->%d",
			col.Tau(), back.Tau(), col.NumSets(), back.NumSets(), col.NumRefs(), back.NumRefs())
	}
	a, b := NewEstimator(col), NewEstimator(back)
	for _, v := range probe {
		ga, gb := a.GainPerGroup(v), b.GainPerGroup(v)
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("gain of %d differs in group %d: %v vs %v", v, i, ga[i], gb[i])
			}
		}
		a.Add(v)
		b.Add(v)
		ua, ub := a.GroupUtilities(), b.GroupUtilities()
		for i := range ua {
			if ua[i] != ub[i] {
				t.Fatalf("utilities differ after adding %d: %v vs %v", v, ua, ub)
			}
		}
	}
}

// TestCodecRoundTrip pins the warm-restart guarantee at the sketch level:
// a decoded Collection is indistinguishable from the one that was saved —
// same shape, and bit-identical estimates for every node along a greedy
// path — so a solve over it returns byte-identical results.
func TestCodecRoundTrip(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(3))
	if err != nil {
		t.Fatal(err)
	}
	col, err := Sample(g, 5, []int{300, 300}, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePayload(col.EncodePayload(), g)
	if err != nil {
		t.Fatal(err)
	}
	estimatesEqual(t, col, back, []graph.NodeID{0, 7, 42, 199})
}

// TestEncodePayloadPinnedAndSizedOnce: the payload's bytes are pinned (by
// SHA-256), so frames already written stay readable and nothing moves
// them, and the encoder sizes the payload exactly and writes it into one
// buffer: a pool of 20,000 sets per group takes as many allocations as
// one of 10.
func TestEncodePayloadPinnedAndSizedOnce(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(3))
	if err != nil {
		t.Fatal(err)
	}
	col, err := Sample(g, 5, []int{300, 300}, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := col.EncodePayload()
	const want = "61407c2fceb75fdf59546800cb374cb2ec133eb3c5953aff3d4ec6eebea0881d"
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != want {
		t.Errorf("payload SHA-256 %s, want %s", got, want)
	}
	if n := col.payloadLen(); n != len(payload) {
		t.Errorf("sized %d bytes, wrote %d", n, len(payload))
	}
	allocs := func(perGroup int) float64 {
		col, err := Sample(g, 5, []int{perGroup, perGroup}, 11, 2)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { col.EncodePayload() })
	}
	if small, large := allocs(10), allocs(20000); small != large {
		t.Errorf("EncodePayload made %v allocations for 10 sets per group, %v for 20,000", small, large)
	}
}

// TestCodecRejectsMalformedPayloads: a payload that passed the frame
// checks but violates the Collection's structural invariants must be
// rejected, never loaded into an index that could answer wrongly.
func TestCodecRejectsMalformedPayloads(t *testing.T) {
	g := generate.TwoStars()
	col, err := Sample(g, 3, []int{50, 50}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := col.EncodePayload()

	if _, err := DecodePayload(good[:len(good)-2], g); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("truncated payload: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodePayload(append(append([]byte(nil), good...), 0), g); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("payload with trailing bytes: got %v, want ErrCorrupt", err)
	}

	// Wrong graph shape: decode against a graph with a different node
	// count and group structure.
	bigger, err := generate.TwoBlock(generate.DefaultTwoBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(good, bigger); err == nil {
		t.Error("payload decoded against a different graph")
	}

	// A valid header with hand-corrupted delta streams.
	header := func() *persist.Enc {
		var e persist.Enc
		e.I32(3)
		e.Ints([]int{2, 2})
		e.Uvarint(uint64(g.N()))
		return &e
	}

	// A zero gap (duplicate flat id) in a delta stream is corruption.
	dup := header()
	dup.Uvarint(2) // node 0: two refs...
	dup.Uvarint(1) // ...first id 1
	dup.Uvarint(0) // ...then gap 0: id 1 again
	for v := 1; v < g.N(); v++ {
		dup.Uvarint(0)
	}
	if _, err := DecodePayload(dup.Bytes(), g); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("zero-gap delta stream: got %v, want ErrCorrupt", err)
	}

	// A ref at/past the total set count (4 here) is corruption.
	oob := header()
	oob.Uvarint(1)
	oob.Uvarint(4)
	for v := 1; v < g.N(); v++ {
		oob.Uvarint(0)
	}
	if _, err := DecodePayload(oob.Bytes(), g); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("out-of-range flat ref: got %v, want ErrCorrupt", err)
	}

	// A huge per-node ref count must fail on bounds, not allocate.
	huge := header()
	huge.Uvarint(math.MaxUint32)
	if _, err := DecodePayload(huge.Bytes(), g); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("oversized ref count: got %v, want ErrCorrupt", err)
	}

	// Negative deadline and non-positive pool sizes (header validation).
	var neg persist.Enc
	neg.I32(-1)
	neg.Ints([]int{2, 2})
	neg.Uvarint(uint64(g.N()))
	for v := 0; v < g.N(); v++ {
		neg.Uvarint(0)
	}
	if _, err := DecodePayload(neg.Bytes(), g); err == nil {
		t.Error("negative deadline accepted")
	}
	var zero persist.Enc
	zero.I32(3)
	zero.Ints([]int{0, 2})
	zero.Uvarint(uint64(g.N()))
	for v := 0; v < g.N(); v++ {
		zero.Uvarint(0)
	}
	if _, err := DecodePayload(zero.Bytes(), g); err == nil {
		t.Error("zero pool size accepted")
	}
}

// FuzzDecodePayload throws arbitrary bytes at the payload decoder:
// whatever comes back must be a clean error or a structurally valid
// Collection — never a panic, never out-of-range state. The corpus seeds
// it with a genuine payload and corrupted variants of it.
func FuzzDecodePayload(f *testing.F) {
	g := generate.TwoStars()
	col, err := Sample(g, 3, []int{20, 20}, 7, 1)
	if err != nil {
		f.Fatal(err)
	}
	good := col.EncodePayload()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		back, err := DecodePayload(payload, g)
		if err != nil {
			return
		}
		// Accepted payloads must decode to an index a solve can trust.
		total := int32(back.NumSets())
		for v := 0; v <= g.N()-1; v++ {
			prev := int32(-1)
			for _, id := range back.refs[back.off[v]:back.off[v+1]] {
				if id <= prev || id >= total {
					t.Fatalf("node %d: accepted ref %d after %d (total %d)", v, id, prev, total)
				}
				prev = id
			}
		}
	})
}
