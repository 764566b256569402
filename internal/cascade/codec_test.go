package cascade

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
)

// worldsEqual fails the test unless both world sets are structurally
// identical — every node's surviving out-neighborhood matches in every
// world — which makes forward-MC estimates over them byte-identical.
func worldsEqual(t *testing.T, tag string, worlds, back []*World, n int) {
	t.Helper()
	if len(back) != len(worlds) {
		t.Fatalf("%s: %d worlds, want %d", tag, len(back), len(worlds))
	}
	for i, w := range worlds {
		if back[i].N() != w.N() || back[i].M() != w.M() {
			t.Fatalf("%s world %d: shape %d/%d, want %d/%d", tag, i, back[i].N(), back[i].M(), w.N(), w.M())
		}
		for v := 0; v < n; v++ {
			a, b := w.Out(int32(v)), back[i].Out(int32(v))
			if len(a) != len(b) {
				t.Fatalf("%s world %d node %d: %v vs %v", tag, i, v, a, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s world %d node %d: %v vs %v", tag, i, v, a, b)
				}
			}
		}
	}
}

func TestWorldCodecRoundTrip(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{IC, LT} {
		worlds := SampleWorlds(g, model, 20, 9, 2)
		back, err := DecodeWorlds(EncodeWorlds(worlds), g.N())
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		worldsEqual(t, model.String(), worlds, back, g.N())
	}
}

// TestEncodeWorldsPinnedAndSizedOnce: the payload's bytes are pinned (by
// SHA-256), so frames already written stay readable and nothing moves
// them, and the encoder sizes the payload exactly and writes it into one
// buffer: 200 worlds take as many allocations as one.
func TestEncodeWorldsPinnedAndSizedOnce(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	for model, want := range map[Model]string{
		IC: "397cd592060480207075a2d3345f14c99f13b584cb498c4ff86651360c3791a1",
		LT: "956672d2ff41402c752e94ca15488d37274f4122318bd22bc603b58fe09cedda",
	} {
		worlds := SampleWorlds(g, model, 20, 9, 2)
		payload := EncodeWorlds(worlds)
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != want {
			t.Errorf("%v: payload SHA-256 %s, want %s", model, got, want)
		}
		if n := worldsPayloadLen(worlds); n != len(payload) {
			t.Errorf("%v: sized %d bytes, wrote %d", model, n, len(payload))
		}
		allocs := func(worlds []*World) float64 {
			return testing.AllocsPerRun(10, func() { EncodeWorlds(worlds) })
		}
		if one, many := allocs(worlds[:1]), allocs(SampleWorlds(g, model, 200, 9, 2)); one != many {
			t.Errorf("%v: EncodeWorlds made %v allocations for 1 world, %v for 200", model, one, many)
		}
	}
}

func TestWorldCodecRejectsMalformedPayloads(t *testing.T) {
	g := generate.TwoStars()
	worlds := SampleWorlds(g, IC, 5, 1, 1)
	good := EncodeWorlds(worlds)

	if _, err := DecodeWorlds(good[:len(good)-3], g.N()); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("truncated payload: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeWorlds(append(append([]byte(nil), good...), 0), g.N()); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("trailing bytes: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeWorlds(good, g.N()+1); err == nil {
		t.Error("wrong node count accepted")
	}

	// A delta stream decoding to a target outside [0,n).
	var oob persist.Enc
	oob.Uvarint(1)  // one world
	oob.Uvarint(3)  // 3 nodes
	oob.Uvarint(1)  // node 0: one edge...
	oob.Uvarint(0)  // node 1: none
	oob.Uvarint(0)  // node 2: none
	oob.Svarint(99) // ...to a node that does not exist
	if _, err := DecodeWorlds(oob.Bytes(), 3); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("out-of-range target: got %v, want ErrCorrupt", err)
	}

	// A degree claiming more edges than the payload can hold.
	var huge persist.Enc
	huge.Uvarint(1)
	huge.Uvarint(3)
	huge.Uvarint(1 << 40)
	if _, err := DecodeWorlds(huge.Bytes(), 3); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("oversized degree: got %v, want ErrCorrupt", err)
	}
}

// FuzzDecodeWorlds throws arbitrary bytes at the payload decoder: either
// a clean error comes back or a world set whose every edge is in range —
// never a panic, never a traversal hazard.
func FuzzDecodeWorlds(f *testing.F) {
	g := generate.TwoStars()
	worlds := SampleWorlds(g, IC, 3, 2, 1)
	good := EncodeWorlds(worlds)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		back, err := DecodeWorlds(payload, g.N())
		if err != nil {
			return
		}
		for i, w := range back {
			for v := 0; v < w.N(); v++ {
				for _, to := range w.Out(graph.NodeID(v)) {
					if to < 0 || int(to) >= w.N() {
						t.Fatalf("world %d: accepted edge %d->%d out of range", i, v, to)
					}
				}
			}
		}
	})
}
