// Package persist implements the on-disk and on-wire format for sample
// sketches: a versioned, self-describing frame around an opaque payload,
// plus the little-endian encode/decode helpers the payload codecs
// (internal/ris, internal/cascade) are built from.
//
// Every frame starts with an 8-byte magic, the payload's codec version, a
// 4-byte kind tag, the fingerprint of the graph the payload was built
// from, the payload length and a CRC-64 checksum of the payload. EncodeTo
// is the one writer: Save streams a state file through it, and a replica
// serving a sketch to a peer streams the same bytes. Decode is the one
// reader, and it accepts exactly the codec version the caller expects. It
// rejects — loudly, never silently — anything that is not a frame
// (ErrCorrupt), was truncated or bit-rotted (ErrCorrupt), or was written
// under another codec version, for another kind or for another graph
// (ErrMismatch). Callers treat either error as "no warm state" and fall
// back to a cold build; a state file can make a restart faster, never
// wrong.
//
// Layering: persist knows about graphs (for fingerprinting) and raw
// bytes, nothing else. What a payload means is the concern of the package
// that owns the encoded type.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"fairtcim/internal/graph"
)

// magic identifies fairtcim warm-restart state files ("FTCWARM" + format
// generation). Bump the trailing digit only if the frame layout itself
// changes; payload layout changes bump the per-kind Meta.Version instead.
const magic = "FTCWARM1"

// headerSize is the fixed frame prefix: magic, version, kind, graph
// fingerprint, payload length, payload checksum.
const headerSize = len(magic) + 4 + 4 + 8 + 8 + 8

// Sentinel errors; both mean "do not use this file", they only differ in
// why. Callers that fall back to a cold build can treat them alike.
var (
	// ErrCorrupt marks files that are not valid state files at all:
	// wrong magic, truncated, or failing the checksum.
	ErrCorrupt = errors.New("persist: corrupt state file")
	// ErrMismatch marks well-formed files that describe something else:
	// a different codec version, kind, or graph fingerprint.
	ErrMismatch = errors.New("persist: state file does not match")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta describes the payload a frame carries; Decode verifies a stored
// frame against the Meta the reader expects.
type Meta struct {
	Kind        string // exactly 4 bytes, e.g. "risc" or "wrld"
	Version     uint32 // payload codec version
	Fingerprint uint64 // GraphFingerprint of the graph the payload binds to
}

// Decode verifies a frame against the expected Meta and returns the
// payload, which aliases data. Integrity checks (length, magic, checksum)
// come before identity checks (kind, version, fingerprint), so a truncated
// frame is reported as corrupt, never as a version skew. The codec version
// must equal want.Version: each codec reads exactly the version it writes.
func Decode(data []byte, want Meta) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(magic)
	version := binary.LittleEndian.Uint32(data[off:])
	off += 4
	kind := string(data[off : off+4])
	off += 4
	fingerprint := binary.LittleEndian.Uint64(data[off:])
	off += 8
	payloadLen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	sum := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if payloadLen != uint64(len(data)-off) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, frame has %d", ErrCorrupt, payloadLen, len(data)-off)
	}
	payload := data[off:]
	if crc64.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: checksum failure", ErrCorrupt)
	}
	if kind != want.Kind {
		return nil, fmt.Errorf("%w: kind %q, want %q", ErrMismatch, kind, want.Kind)
	}
	if version != want.Version {
		return nil, fmt.Errorf("%w: codec version %d, want %d", ErrMismatch, version, want.Version)
	}
	if fingerprint != want.Fingerprint {
		return nil, fmt.Errorf("%w: graph fingerprint %016x, want %016x", ErrMismatch, fingerprint, want.Fingerprint)
	}
	return payload, nil
}

// EncodeTo streams a framed payload to w: the header, then the payload
// verbatim, without copying the two into one buffer. It is the only frame
// writer. Save uses it for state files and the sketch transfer endpoint
// for peers, so the wire format and the state-file format cannot diverge.
func EncodeTo(w io.Writer, meta Meta, payload []byte) error {
	if len(meta.Kind) != 4 {
		return fmt.Errorf("persist: kind %q must be exactly 4 bytes", meta.Kind)
	}
	header := make([]byte, 0, headerSize)
	header = append(header, magic...)
	header = binary.LittleEndian.AppendUint32(header, meta.Version)
	header = append(header, meta.Kind...)
	header = binary.LittleEndian.AppendUint64(header, meta.Fingerprint)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(payload)))
	header = binary.LittleEndian.AppendUint64(header, crc64.Checksum(payload, crcTable))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Save atomically writes a framed payload: the frame streams through
// EncodeTo into a temp file in the same directory, is synced, then renamed
// over path — a crash leaves either the old state or the new, never a torn
// file.
func Save(path string, meta Meta, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := EncodeTo(tmp, meta, payload); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads and verifies a framed payload. A missing file is reported
// via the underlying fs.ErrNotExist so callers can distinguish "cold" from
// "rejected".
func Load(path string, want Meta) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, want)
}

// GraphFingerprint hashes everything a sampling distribution depends on —
// node count, group labels, and the full weighted adjacency — into a
// 64-bit identity (FNV-1a). Two graphs with the same fingerprint draw the
// same samples under the same seed, so persisted sketches keyed by it are
// interchangeable; a re-generated or edited graph changes the fingerprint
// and invalidates every file bound to the old one.
func GraphFingerprint(g *graph.Graph) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(g.N()))
	mix(uint64(g.M()))
	mix(uint64(g.NumGroups()))
	for v := 0; v < g.N(); v++ {
		mix(uint64(g.Group(graph.NodeID(v))))
	}
	offsets, targets := g.OutCSR()
	for _, o := range offsets {
		mix(uint64(uint32(o)))
	}
	for _, t := range targets {
		mix(uint64(uint32(t)))
	}
	for v := 0; v < g.N(); v++ {
		_, probs := g.OutEdges(graph.NodeID(v))
		for _, p := range probs {
			mix(math.Float64bits(p))
		}
	}
	return h
}

// VersionedFingerprint binds a graph fingerprint to a registry version, for
// graphs that mutate in place over their lifetime. Two successive versions
// of a dynamic graph can collide on GraphFingerprint alone only by applying
// a delta and its exact inverse, but the version counter still moves — so
// frames written under the old version must not satisfy readers at the new
// one, and vice versa. Mixing the version through one more FNV round keeps
// the static case untouched: version 0 is reserved for immutable graphs and
// returns fp unchanged.
func VersionedFingerprint(fp, version uint64) uint64 {
	if version == 0 {
		return fp
	}
	const prime64 = 1099511628211
	h := fp
	for i := 0; i < 8; i++ {
		h ^= version & 0xff
		h *= prime64
		version >>= 8
	}
	return h
}
