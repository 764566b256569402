package persist

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

func testMeta() Meta { return Meta{Kind: "test", Version: 3, Fingerprint: 0xfeedface} }

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.sample")
	payload := []byte("the quick brown fox")
	if err := Save(path, testMeta(), payload); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
	// Empty payloads are legal too.
	if err := Save(path, testMeta(), nil); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(path, testMeta()); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %q, %v", got, err)
	}
}

func TestLoadMissingFileIsNotExist(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope"), testMeta())
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.sample")
	payload := []byte("some payload bytes with enough length to corrupt")
	if err := Save(path, testMeta(), payload); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, want error) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, testMeta()); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}

	check("truncated header", good[:10], ErrCorrupt)
	check("truncated payload", good[:len(good)-5], ErrCorrupt)
	check("empty file", nil, ErrCorrupt)
	check("trailing garbage", append(append([]byte(nil), good...), 'x'), ErrCorrupt)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x40 // payload bit rot
	check("checksum failure", flipped, ErrCorrupt)

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xff
	check("bad magic", badMagic, ErrCorrupt)

	// Valid frames for the wrong thing are a mismatch, not corruption. A
	// codec reads exactly the version it writes, so a frame one version
	// older than the reader is rejected like one a version newer.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]Meta{
		"older frame":       {Kind: "test", Version: 4, Fingerprint: 0xfeedface},
		"newer frame":       {Kind: "test", Version: 2, Fingerprint: 0xfeedface},
		"wrong kind":        {Kind: "diff", Version: 3, Fingerprint: 0xfeedface},
		"wrong fingerprint": {Kind: "test", Version: 3, Fingerprint: 1},
	} {
		if _, err := Load(path, want); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", name, err)
		}
	}
}

// TestEncodeRejectsBadKind: a kind that is not exactly 4 bytes cannot be
// framed, and Save fails before anything lands on disk — neither the
// target nor a stray temp file.
func TestEncodeRejectsBadKind(t *testing.T) {
	if err := EncodeTo(&bytes.Buffer{}, Meta{Kind: "toolong"}, nil); err == nil {
		t.Fatal("5-byte kind accepted")
	}
	dir := t.TempDir()
	if err := Save(filepath.Join(dir, "a.sample"), Meta{Kind: "toolong"}, []byte("payload")); err == nil {
		t.Fatal("Save accepted a 5-byte kind")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("failed Save left %v behind (err %v)", left, err)
	}
}

func TestGraphFingerprint(t *testing.T) {
	g1 := generate.TwoStars()
	g2 := generate.TwoStars()
	if GraphFingerprint(g1) != GraphFingerprint(g2) {
		t.Fatal("identical graphs fingerprint differently")
	}
	sbm, err := generate.TwoBlock(generate.DefaultTwoBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	if GraphFingerprint(g1) == GraphFingerprint(sbm) {
		t.Fatal("different graphs share a fingerprint")
	}
	// Same topology, different group labels: the sampling distribution of
	// per-group pools changes, so the fingerprint must too.
	labels := make([]int, g1.N())
	relabeled, err := g1.WithGroups(labels)
	if err != nil {
		t.Fatal(err)
	}
	if GraphFingerprint(g1) == GraphFingerprint(relabeled) {
		t.Fatal("relabeled graph shares a fingerprint")
	}
	// A delta produces a graph with a different fingerprint...
	g3, _, err := g1.ApplyDelta(graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, P: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if GraphFingerprint(g1) == GraphFingerprint(g3) {
		t.Fatal("delta-updated graph shares a fingerprint")
	}
	// ...and reverting the delta restores it — exactly the collision that
	// version-keying exists to break.
	g4, _, err := g3.ApplyDelta(graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, Remove: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if GraphFingerprint(g1) != GraphFingerprint(g4) {
		t.Fatal("inverse delta did not restore the fingerprint")
	}
}

func TestVersionedFingerprint(t *testing.T) {
	fp := GraphFingerprint(generate.TwoStars())
	if VersionedFingerprint(fp, 0) != fp {
		t.Fatal("version 0 must leave static fingerprints unchanged")
	}
	v1, v2 := VersionedFingerprint(fp, 1), VersionedFingerprint(fp, 2)
	if v1 == fp || v2 == fp || v1 == v2 {
		t.Fatalf("versioned fingerprints collide: fp=%x v1=%x v2=%x", fp, v1, v2)
	}
	if VersionedFingerprint(fp, 1) != v1 {
		t.Fatal("not deterministic")
	}
}

func TestVersionedFingerprintRejectsOldFrame(t *testing.T) {
	// A frame persisted under version 1 must be rejected as ErrMismatch —
	// not decoded — when the reader expects version 2 of the same graph,
	// even though the graph content could be byte-identical.
	path := filepath.Join(t.TempDir(), "sketch")
	fp := GraphFingerprint(generate.TwoStars())
	oldMeta := Meta{Kind: "risc", Version: 1, Fingerprint: VersionedFingerprint(fp, 1)}
	if err := Save(path, oldMeta, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	newMeta := oldMeta
	newMeta.Fingerprint = VersionedFingerprint(fp, 2)
	if _, err := Load(path, newMeta); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	// The same frame still loads at its own version.
	if _, err := Load(path, oldMeta); err != nil {
		t.Fatal(err)
	}
}

func TestDecHelpers(t *testing.T) {
	var e Enc
	e.I32(-7)
	e.U64(42)
	e.Ints([]int{9, -9})
	d := NewDec(e.Bytes())
	if v := d.I32(); v != -7 {
		t.Fatalf("I32 = %d", v)
	}
	if v := d.U64(); v != 42 {
		t.Fatalf("U64 = %d", v)
	}
	if got := d.Ints(); len(got) != 2 || got[1] != -9 {
		t.Fatalf("Ints = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A huge length prefix must not allocate; it fails against the
	// remaining byte count.
	var bad Enc
	bad.U64(1 << 60)
	d = NewDec(bad.Bytes())
	if d.Ints(); !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("oversized length: err = %v", d.Err())
	}

	// Trailing bytes are an error: payloads must be consumed exactly.
	d = NewDec([]byte{1, 2, 3, 4})
	if err := d.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

// TestEncodedLengths: UvarintLen, SvarintLen and DeltaU32sLen give the
// exact byte counts of what Uvarint, Svarint and DeltaU32s append, at each
// varint width boundary and at the extremes.
func TestEncodedLengths(t *testing.T) {
	var us []uint64
	for shift := 0; shift < 64; shift += 7 {
		us = append(us, 1<<shift-1, 1<<shift, 1<<shift+1)
	}
	us = append(us, math.MaxUint64)
	for _, u := range us {
		var e Enc
		e.Uvarint(u)
		if got := UvarintLen(u); got != len(e.Bytes()) {
			t.Errorf("UvarintLen(%d) = %d, Uvarint wrote %d bytes", u, got, len(e.Bytes()))
		}
		for _, v := range []int64{int64(u >> 1), -int64(u >> 1), -int64(u>>1) - 1} {
			var e Enc
			e.Svarint(v)
			if got := SvarintLen(v); got != len(e.Bytes()) {
				t.Errorf("SvarintLen(%d) = %d, Svarint wrote %d bytes", v, got, len(e.Bytes()))
			}
		}
	}
	for _, s := range [][]int32{nil, {0}, {127, 128, 300, 20000, math.MaxInt32}} {
		var e Enc
		e.DeltaU32s(s)
		if got := DeltaU32sLen(s); got != len(e.Bytes()) {
			t.Errorf("DeltaU32sLen(%v) = %d, DeltaU32s wrote %d bytes", s, got, len(e.Bytes()))
		}
	}
}

// frame returns the bytes EncodeTo writes for payload under testMeta.
func frame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeTo(&buf, testMeta(), payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeToMatchesEncode pins the wire format to the disk format: the
// bytes EncodeTo streams are exactly the file Save writes.
func TestEncodeToMatchesEncode(t *testing.T) {
	payload := []byte("streamed payload bytes")
	path := filepath.Join(t.TempDir(), "a.sample")
	if err := Save(path, testMeta(), payload); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame(t, payload), file) {
		t.Fatal("EncodeTo bytes differ from the Save file — wire and disk formats diverged")
	}
}

// FuzzDecode throws arbitrary bytes at the frame reader, against an
// arbitrary expected version and fingerprint: it must never panic, and a
// frame it accepts must be exactly what EncodeTo writes for the returned
// payload — Decode admits no second spelling of a frame.
func FuzzDecode(f *testing.F) {
	framed := frame(f, []byte("fuzz payload"))
	m := testMeta()
	f.Add(framed, m.Version, m.Fingerprint)
	f.Add(frame(f, nil), m.Version, m.Fingerprint)
	f.Add(framed, m.Version+1, m.Fingerprint)
	f.Add(framed[:headerSize], m.Version, m.Fingerprint)
	f.Add(framed[:len(framed)-1], m.Version, m.Fingerprint)
	f.Add(append(append([]byte(nil), framed...), 0), m.Version, m.Fingerprint)
	f.Add([]byte{}, uint32(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, version uint32, fingerprint uint64) {
		want := Meta{Kind: m.Kind, Version: version, Fingerprint: fingerprint}
		payload, err := Decode(data, want)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeTo(&buf, want, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted frame %x re-encodes to %x", data, buf.Bytes())
		}
	})
}
