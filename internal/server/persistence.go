package server

import (
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fairtcim/internal/cascade"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
	"fairtcim/internal/ris"
)

// diskStore is the cache's write-through backing: one persist-framed file
// per sampleKey under <state-dir>/sketches. Loads and saves happen inside
// the cache's singleflight, so each key touches disk at most once per
// process no matter the request fan-in. A file that is missing, corrupt,
// version-skewed, or bound to a different graph is never used — the
// caller falls back to a cold build (and, for save, simply keeps serving
// from memory).
//
// The store also garbage-collects itself: dynamic graphs mint a new file
// per (key, graph version), so without a bound the sketch dir grows with
// every update. maxBytes caps the total size (least-recently-used files
// go first) and maxAge drops files untouched for longer than the window;
// either is 0 to disable. Load order is tracked in memory and mirrored to
// file mtimes, so the LRU survives restarts.
type diskStore struct {
	dir      string
	maxBytes int64
	maxAge   time.Duration

	gcRemovals atomic.Int64 // files deleted by the GC, surfaced in CacheStats

	fp *fpMemo // the server's graph fingerprints, shared with the cluster

	mu sync.Mutex
	// GC manifest: every known state file by path, LRU-ordered (front =
	// most recently used), with the running total size.
	files      map[string]*list.Element // of *gcFile
	gcLRU      *list.List
	totalBytes int64
}

// gcFile is one manifest row.
type gcFile struct {
	path string
	size int64
	last time.Time
}

// newDiskStore roots a sample store at dir, creating it if needed, and
// scans any files a previous run left behind into the GC manifest
// (ordered by mtime) so the bounds apply across restarts. fp frames
// saves and checks loads against each graph's fingerprint.
func newDiskStore(dir string, maxBytes int64, maxAge time.Duration, fp *fpMemo) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	d := &diskStore{
		dir:      dir,
		maxBytes: maxBytes,
		maxAge:   maxAge,
		fp:       fp,
		files:    map[string]*list.Element{},
		gcLRU:    list.New(),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: state dir: %w", err)
	}
	type scanned struct {
		path string
		size int64
		last time.Time
	}
	var found []scanned
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".sample" {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{filepath.Join(dir, ent.Name()), info.Size(), info.ModTime()})
	}
	// Oldest first, so after the PushFront loop the LRU front holds the
	// most recently touched file.
	for i := 1; i < len(found); i++ {
		for j := i; j > 0 && found[j].last.Before(found[j-1].last); j-- {
			found[j], found[j-1] = found[j-1], found[j]
		}
	}
	d.mu.Lock()
	for _, f := range found {
		d.files[f.path] = d.gcLRU.PushFront(&gcFile{path: f.path, size: f.size, last: f.last})
		d.totalBytes += f.size
	}
	d.gcLocked(time.Now())
	d.mu.Unlock()
	return d, nil
}

// gcLocked enforces the age window, then the size cap, deleting
// least-recently-used files until both hold. Callers hold d.mu.
func (d *diskStore) gcLocked(now time.Time) {
	remove := func(el *list.Element) {
		f := el.Value.(*gcFile)
		d.gcLRU.Remove(el)
		delete(d.files, f.path)
		d.totalBytes -= f.size
		if err := os.Remove(f.path); err == nil || errors.Is(err, fs.ErrNotExist) {
			d.gcRemovals.Add(1)
		}
	}
	if d.maxAge > 0 {
		cutoff := now.Add(-d.maxAge)
		for el := d.gcLRU.Back(); el != nil; {
			f := el.Value.(*gcFile)
			if !f.last.Before(cutoff) {
				break // LRU order: everything further forward is newer
			}
			prev := el.Prev()
			remove(el)
			el = prev
		}
	}
	if d.maxBytes > 0 {
		for d.totalBytes > d.maxBytes && d.gcLRU.Len() > 1 {
			// Never evict the most recently used file to make room: the
			// entry just written must survive its own GC pass.
			remove(d.gcLRU.Back())
		}
	}
}

// touch moves path to the manifest front and mirrors the use to the file
// mtime so the LRU order survives a restart.
func (d *diskStore) touch(path string, now time.Time) {
	d.mu.Lock()
	if el, ok := d.files[path]; ok {
		el.Value.(*gcFile).last = now
		d.gcLRU.MoveToFront(el)
	}
	d.mu.Unlock()
	_ = os.Chtimes(path, now, now)
}

// record registers a freshly saved file (replacing any previous entry for
// the same path) and runs the GC.
func (d *diskStore) record(path string, size int64, now time.Time) {
	d.mu.Lock()
	if el, ok := d.files[path]; ok {
		f := el.Value.(*gcFile)
		d.totalBytes += size - f.size
		f.size, f.last = size, now
		d.gcLRU.MoveToFront(el)
	} else {
		d.files[path] = d.gcLRU.PushFront(&gcFile{path: path, size: size, last: now})
		d.totalBytes += size
	}
	d.gcLocked(now)
	d.mu.Unlock()
}

// fileName derives the stable on-disk name for a key: a sanitized graph
// name for debuggability plus a hash of every key field — including the
// graph version, so a post-update request misses cleanly (fs.ErrNotExist,
// a cold start) instead of tripping over the pre-update file.
func (d *diskStore) fileName(key sampleKey) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%016x|%016x|%d|%t",
		key.graph, key.version, key.engine, key.model, key.tau, key.budget, key.seed,
		key.epsBits, key.deltaBits, key.sizingK, key.evalOnly)
	safe := make([]byte, 0, len(key.graph))
	for i := 0; i < len(key.graph) && i < 40; i++ {
		c := key.graph[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return filepath.Join(d.dir, fmt.Sprintf("%s-%016x.sample", safe, h.Sum64()))
}

// fpMemo memoizes persist.GraphFingerprint — the hash walks the full
// adjacency, and one snapshot backs many keys. The disk tier and the
// cluster share one memo per server. It holds one snapshot per graph
// name, the newest version fingerprinted, so an update's new snapshot
// replaces its predecessor instead of pinning it.
type fpMemo struct {
	mu  sync.Mutex
	fps map[string]fpEntry // by graph name
}

type fpEntry struct {
	g       *graph.Graph
	version uint64
	fp      uint64
}

// fingerprint returns the fingerprint of g, the snapshot of key.graph at
// key.version. A snapshot older than the one memoized is hashed but not
// stored: a request pinned to a superseded version must not evict the
// current snapshot's fingerprint or pin its own snapshot again.
func (m *fpMemo) fingerprint(key sampleKey, g *graph.Graph) uint64 {
	m.mu.Lock()
	e, ok := m.fps[key.graph]
	m.mu.Unlock()
	if ok && e.g == g {
		return e.fp
	}
	fp := persist.GraphFingerprint(g)
	m.mu.Lock()
	if m.fps == nil {
		m.fps = map[string]fpEntry{}
	}
	if cur, ok := m.fps[key.graph]; !ok || key.version >= cur.version {
		m.fps[key.graph] = fpEntry{g: g, version: key.version, fp: fp}
	}
	m.mu.Unlock()
	return fp
}

// frameMeta frames a key's payload: the codec kind/version follow the
// engine; the fingerprint binds the frame to the graph's exact structure
// AND its registry version. Content alone is not identity for dynamic
// graphs — a delta and its inverse restore the structural fingerprint
// while the version keeps moving, and the stale frame must not satisfy
// the round trip. Shared by the disk tier and the cross-replica sketch
// exchange: the wire format IS the state-file format.
func frameMeta(key sampleKey, fp uint64) persist.Meta {
	m := persist.Meta{Fingerprint: persist.VersionedFingerprint(fp, key.version)}
	if key.engine == fairim.EngineRIS {
		m.Kind, m.Version = ris.CodecKind, ris.CodecVersion
	} else {
		m.Kind, m.Version = cascade.WorldCodecKind, cascade.WorldCodecVersion
	}
	return m
}

// meta frames a key's payload for this store's graph.
func (d *diskStore) meta(key sampleKey, g *graph.Graph) persist.Meta {
	return frameMeta(key, d.fp.fingerprint(key, g))
}

// load reads the persisted sample for key, if any. It returns (nil, nil)
// when no file exists (a cold start, not an error) and an error when a
// file exists but is unusable — the caller counts it and builds cold. A
// frame written under another codec version is unusable like any other
// mismatch: a state dir is a cache, so a codec change costs one cold
// build per key, never a wrong answer.
func (d *diskStore) load(key sampleKey, g *graph.Graph) (*sample, error) {
	path := d.fileName(key)
	payload, err := persist.Load(path, d.meta(key, g))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	d.touch(path, time.Now())
	return decodeSamplePayload(key, g, payload)
}

// decodeSamplePayload turns a verified frame payload back into a sample,
// then validates the decoded artifact against the key's own parameters
// (τ, explicit budgets): even a valid frame that somehow landed under the
// wrong name — or arrived from a confused peer — cannot serve wrong
// answers. It is the one place that picks an engine's decoder, shared by
// the disk tier and the cross-replica sketch fetch, so a transferred
// frame passes exactly the checks a local load would.
func decodeSamplePayload(key sampleKey, g *graph.Graph, payload []byte) (*sample, error) {
	if key.engine == fairim.EngineRIS {
		col, err := ris.DecodePayload(payload, g)
		if err != nil {
			return nil, err
		}
		if col.Tau() != key.tau {
			return nil, fmt.Errorf("server: persisted sketch bounded by τ=%d, key wants %d", col.Tau(), key.tau)
		}
		if key.budget > 0 {
			for i, s := range col.PoolSizes() {
				if s != key.budget {
					return nil, fmt.Errorf("server: persisted pool for group %d has %d RR sets, key wants %d", i, s, key.budget)
				}
			}
		}
		return &sample{g: g, col: col}, nil
	}
	worlds, err := cascade.DecodeWorlds(payload, g.N())
	if err != nil {
		return nil, err
	}
	if len(worlds) == 0 {
		return nil, fmt.Errorf("server: persisted world set is empty")
	}
	if key.budget > 0 && len(worlds) != key.budget {
		return nil, fmt.Errorf("server: persisted world set has %d worlds, key wants %d", len(worlds), key.budget)
	}
	return &sample{g: g, worlds: worlds}, nil
}

// rawFrame returns the stored frame bytes for key verbatim — the sketch
// transfer endpoint streams state files as-is, and the fetching replica
// validates the frame exactly as it would a local file. Serving counts
// as a use for the GC's LRU.
func (d *diskStore) rawFrame(key sampleKey) ([]byte, bool) {
	path := d.fileName(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	d.touch(path, time.Now())
	return data, true
}

// save writes a freshly built sample under the key's file name and runs
// the GC over the grown store.
func (d *diskStore) save(key sampleKey, smp *sample) error {
	path := d.fileName(key)
	if err := persist.Save(path, d.meta(key, smp.g), smp.payload()); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	d.record(path, info.Size(), time.Now())
	return nil
}
