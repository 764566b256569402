package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fairtcim/internal/cascade"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
)

func mustDisk(t *testing.T, dir string) *diskStore {
	t.Helper()
	d, err := newDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// diskCache returns a cache whose disk tier lives in dir. Its write-behind
// saves are drained at cleanup, which runs before the cleanup of the
// earlier t.TempDir that made dir, so no save races the dir's removal.
func diskCache(t *testing.T, dir string, capacity int) *Cache {
	t.Helper()
	c := NewCache(capacity)
	c.disk = mustDisk(t, dir)
	t.Cleanup(c.WaitFlushes)
	return c
}

// sampleUtilities projects a sample onto comparable numbers: the group
// utilities of a fixed two-seed set under its estimator.
func sampleUtilities(t *testing.T, smp *sample, tau int32) []float64 {
	t.Helper()
	est, err := smp.newEstimator(tau)
	if err != nil {
		t.Fatal(err)
	}
	est.Add(0)
	est.Add(11)
	return est.GroupUtilities()
}

// TestCacheDiskRoundTrip: a second cache over the same state dir serves
// the key from disk — no rebuild — and the loaded sample estimates
// identically, for both engines.
func TestCacheDiskRoundTrip(t *testing.T) {
	g := generate.TwoStars()
	dir := t.TempDir()
	keys := []sampleKey{
		{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 500, seed: 1},
		{graph: "twostars", engine: fairim.EngineForwardMC, model: cascade.IC, budget: 60, seed: 1},
		{graph: "twostars", engine: fairim.EngineForwardMC, model: cascade.LT, budget: 40, seed: 2},
	}

	cold := diskCache(t, dir, 8)
	want := make([][]float64, len(keys))
	for i, key := range keys {
		smp, hit, _, err := cold.SampleFor(context.Background(), key, g, 1, nil)
		if err != nil || hit {
			t.Fatalf("cold build %d: hit=%v err=%v", i, hit, err)
		}
		want[i] = sampleUtilities(t, smp, 3)
	}
	// Persistence is write-behind; drain it before reading the disk tier.
	cold.WaitFlushes()
	st := cold.Stats()
	if st.DiskWrites != int64(len(keys)) || st.DiskHits != 0 || st.DiskErrors != 0 {
		t.Fatalf("cold cache disk counters: %+v", st)
	}
	if st.FlushesInFlight != 0 {
		t.Fatalf("flushes in flight after WaitFlushes: %+v", st)
	}

	warm := diskCache(t, dir, 8)
	for i, key := range keys {
		smp, hit, _, err := warm.SampleFor(context.Background(), key, g, 1, nil)
		if err != nil {
			t.Fatalf("warm load %d: %v", i, err)
		}
		if !hit {
			t.Fatalf("warm load %d not reported as a hit", i)
		}
		got := sampleUtilities(t, smp, 3)
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("key %d: disk-loaded utilities %v, want byte-identical %v", i, got, want[i])
			}
		}
	}
	st = warm.Stats()
	if st.Builds != 0 || st.DiskHits != int64(len(keys)) || st.DiskErrors != 0 {
		t.Fatalf("warm cache rebuilt: %+v", st)
	}
}

// TestServerWarmRestart is the acceptance criterion end to end: a daemon
// restarted on the same state dir answers its first repeat query from
// disk — cache_hit=true, zero builds — with byte-identical results, and
// its job history survives.
func TestServerWarmRestart(t *testing.T) {
	stateDir := t.TempDir()
	body := `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50,"eval":"sample"}`

	s1, ts1 := newTestServer(t, Config{StateDir: stateDir})
	resp, raw := postJSON(t, ts1.URL+"/v1/select", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first select: %s", raw)
	}
	var first SolveResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	// A finished job for the history check.
	job := submitJob(t, ts1.URL, body)
	if final := pollJob(t, ts1.URL, job.ID, 30*time.Second); final.Status != JobDone {
		t.Fatalf("job ended %q", final.Status)
	}
	// Persistence is write-behind; drain it before "restarting".
	s1.WaitFlushes()
	ts1.Close()

	// "Restart": a fresh server over the same state dir.
	s2, ts2 := newTestServer(t, Config{StateDir: stateDir})
	resp, raw = postJSON(t, ts2.URL+"/v1/select", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart select: %s", raw)
	}
	var second SolveResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("first post-restart select did not report cache_hit")
	}
	if fmt.Sprint(second.Seeds) != fmt.Sprint(first.Seeds) ||
		second.Total != first.Total || second.Disparity != first.Disparity {
		t.Errorf("post-restart result differs: %+v vs %+v", second.UtilityReport, first.UtilityReport)
	}
	stats := s2.Stats()
	if stats.Cache.Builds != 0 || stats.Cache.DiskHits < 1 {
		t.Errorf("restart re-sampled: %+v", stats.Cache)
	}
	if stats.StateDir != stateDir {
		t.Errorf("stats state_dir = %q", stats.StateDir)
	}
	if stats.Jobs.Done < 1 {
		t.Errorf("job history lost: %+v", stats.Jobs)
	}

	// The journaled job is listed and still carries its result.
	restored, ok := s2.jobs.get(job.ID)
	if !ok {
		t.Fatal("finished job missing after restart")
	}
	st := restored.status()
	if st.Status != JobDone || st.Result == nil || len(st.Result.Seeds) != 2 || st.Picks != 2 {
		t.Errorf("restored job: %+v", st)
	}
}

// TestCacheDiskRejectsCorrupt: a bit-rotted state file degrades to a cold
// build (counted in disk_errors), never an error or a wrong answer.
func TestCacheDiskRejectsCorrupt(t *testing.T) {
	g := generate.TwoStars()
	dir := t.TempDir()
	key := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 200, seed: 1}

	c1 := diskCache(t, dir, 8)
	smp, _, _, err := c1.SampleFor(context.Background(), key, g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleUtilities(t, smp, 3)
	c1.WaitFlushes()

	path := c1.disk.fileName(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := diskCache(t, dir, 8)
	smp, hit, _, err := c2.SampleFor(context.Background(), key, g, 1, nil)
	if err != nil {
		t.Fatalf("corrupt file surfaced as an error: %v", err)
	}
	if hit {
		t.Error("corrupt file served as a hit")
	}
	got := sampleUtilities(t, smp, 3)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cold rebuild differs: %v vs %v", got, want)
		}
	}
	st := c2.Stats()
	if st.Builds != 1 || st.DiskErrors < 1 || st.DiskHits != 0 {
		t.Fatalf("corrupt-file counters: %+v", st)
	}
	// The rebuild rewrote the file; a third cache loads it cleanly.
	c2.WaitFlushes()
	c3 := diskCache(t, dir, 8)
	if _, hit, _, err := c3.SampleFor(context.Background(), key, g, 1, nil); err != nil || !hit {
		t.Fatalf("rewritten file not loadable: hit=%v err=%v", hit, err)
	}
}

// TestCacheDiskRejectsWrongGraph: a state file written for one graph is
// rejected by fingerprint when the same registry name now resolves to a
// different graph (regenerated data, changed labels, ...).
func TestCacheDiskRejectsWrongGraph(t *testing.T) {
	dir := t.TempDir()
	key := sampleKey{graph: "g", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 100, seed: 1}

	c1 := diskCache(t, dir, 8)
	if _, _, _, err := c1.SampleFor(context.Background(), key, generate.TwoStars(), 1, nil); err != nil {
		t.Fatal(err)
	}
	c1.WaitFlushes()

	other, err := generate.TwoBlock(generate.DefaultTwoBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	c2 := diskCache(t, dir, 8)
	smp, hit, _, err := c2.SampleFor(context.Background(), key, other, 1, nil)
	if err != nil || smp == nil {
		t.Fatalf("mismatched file broke the request: %v", err)
	}
	if hit {
		t.Error("sketch for a different graph served as a hit")
	}
	if st := c2.Stats(); st.Builds != 1 || st.DiskErrors < 1 {
		t.Fatalf("wrong-graph counters: %+v", st)
	}
}

// TestCacheDiskLoadsV1Frame: a state file written by the previous
// release — a version-1 frame in the offset+target world layout — still
// loads through the disk tier with no rebuild and estimates identically.
// The v1 payload is hand-encoded here exactly as the old codec wrote it.
func TestCacheDiskLoadsV1Frame(t *testing.T) {
	g := generate.TwoStars()
	key := sampleKey{graph: "twostars", engine: fairim.EngineForwardMC, model: cascade.IC, budget: 40, seed: 3}

	worlds := cascade.SampleWorlds(g, cascade.IC, 40, 3, 1)
	var e persist.Enc
	e.I64(int64(len(worlds)))
	for _, w := range worlds {
		offsets := make([]int32, g.N()+1)
		var targets []int32
		for v := 0; v < g.N(); v++ {
			for _, u := range w.Out(graph.NodeID(v)) {
				targets = append(targets, int32(u))
			}
			offsets[v+1] = int32(len(targets))
		}
		e.I32s(offsets)
		e.I32s(targets)
	}

	c := diskCache(t, t.TempDir(), 8)
	meta := persist.Meta{Kind: cascade.WorldCodecKind, Version: 1, Fingerprint: persist.GraphFingerprint(g)}
	if err := persist.Save(c.disk.fileName(key), meta, e.Bytes()); err != nil {
		t.Fatal(err)
	}

	smp, hit, _, err := c.SampleFor(context.Background(), key, g, 1, nil)
	if err != nil || !hit {
		t.Fatalf("v1 frame load: hit=%v err=%v", hit, err)
	}
	want := sampleUtilities(t, &sample{g: g, worlds: worlds}, 3)
	got := sampleUtilities(t, smp, 3)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("v1-loaded utilities %v, want byte-identical %v", got, want)
		}
	}
	if st := c.Stats(); st.Builds != 0 || st.DiskHits != 1 || st.DiskErrors != 0 {
		t.Fatalf("v1 frame counters: %+v", st)
	}
}

// TestCacheDiskRejectsWrongVersion: a frame from a different codec
// version is rejected and rebuilt cold.
func TestCacheDiskRejectsWrongVersion(t *testing.T) {
	g := generate.TwoStars()
	dir := t.TempDir()
	key := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 100, seed: 1}

	c1 := diskCache(t, dir, 8)
	if _, _, _, err := c1.SampleFor(context.Background(), key, g, 1, nil); err != nil {
		t.Fatal(err)
	}
	c1.WaitFlushes()
	// Re-frame the valid payload under a future codec version.
	path := c1.disk.fileName(key)
	meta := c1.disk.meta(key, g)
	payload, err := persist.Load(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	meta.Version++
	if err := persist.Save(path, meta, payload); err != nil {
		t.Fatal(err)
	}

	c2 := diskCache(t, dir, 8)
	if _, hit, _, err := c2.SampleFor(context.Background(), key, g, 1, nil); err != nil || hit {
		t.Fatalf("version-skewed file: hit=%v err=%v", hit, err)
	}
	if st := c2.Stats(); st.Builds != 1 || st.DiskErrors < 1 {
		t.Fatalf("version-skew counters: %+v", st)
	}
}

// TestCacheDiskConcurrent exercises concurrent save/load through two
// caches sharing one state dir under -race: per-key singleflight within a
// cache, atomic file replacement across caches.
func TestCacheDiskConcurrent(t *testing.T) {
	g := generate.TwoStars()
	dir := t.TempDir()
	a := diskCache(t, dir, 16)
	b := diskCache(t, dir, 16)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		for _, c := range []*Cache{a, b} {
			wg.Add(1)
			go func(c *Cache, w int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					key := sampleKey{
						graph:  "twostars",
						engine: fairim.EngineRIS,
						model:  cascade.IC,
						tau:    3,
						budget: 100 + 50*(i%2),
						seed:   int64(1 + w%2),
					}
					smp, _, _, err := c.SampleFor(context.Background(), key, g, 1, nil)
					if err != nil || smp == nil {
						t.Errorf("concurrent SampleFor: %v", err)
						return
					}
					if est, err := smp.newEstimator(3); err != nil || est == nil {
						t.Errorf("concurrent newEstimator: %v", err)
						return
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	for _, c := range []*Cache{a, b} {
		c.WaitFlushes()
		if st := c.Stats(); st.DiskErrors != 0 {
			t.Errorf("disk errors under concurrency: %+v", st)
		}
	}
}

// TestDiskFileNames: distinct keys land on distinct files, equal keys on
// the same one, and hostile graph names cannot escape the state dir.
func TestDiskFileNames(t *testing.T) {
	d := mustDisk(t, t.TempDir())
	k1 := sampleKey{graph: "g", engine: fairim.EngineRIS, tau: 3, budget: 10, seed: 1}
	k2 := k1
	k2.seed = 2
	if d.fileName(k1) != d.fileName(k1) {
		t.Error("file name not deterministic")
	}
	if d.fileName(k1) == d.fileName(k2) {
		t.Error("distinct keys share a file")
	}
	evil := sampleKey{graph: "../../etc/passwd", engine: fairim.EngineRIS}
	name := d.fileName(evil)
	if filepath.Dir(name) != d.dir {
		t.Errorf("hostile graph name escaped the state dir: %q", name)
	}
}

// graphFingerprintStability: the memoized fingerprint matches the
// package-level one.
func TestDiskFingerprintMemo(t *testing.T) {
	d := mustDisk(t, t.TempDir())
	g := generate.TwoStars()
	if d.fingerprint(g) != persist.GraphFingerprint(g) {
		t.Error("memoized fingerprint differs")
	}
	if d.fingerprint(g) != d.fingerprint(g) {
		t.Error("fingerprint unstable")
	}
}

// TestDiskFileNamesVersioned: the graph version participates in the file
// name, so a post-update request misses cleanly instead of reading the
// pre-update sketch.
func TestDiskFileNamesVersioned(t *testing.T) {
	d := mustDisk(t, t.TempDir())
	k1 := sampleKey{graph: "g", version: 1, engine: fairim.EngineRIS, tau: 3, budget: 10, seed: 1}
	k2 := k1
	k2.version = 2
	if d.fileName(k1) == d.fileName(k2) {
		t.Error("different graph versions share a sketch file")
	}
}

// TestDiskStoreGC: the sketch dir is bounded by total size (LRU order,
// surviving restarts via mtimes) and by age.
func TestDiskStoreGC(t *testing.T) {
	g := generate.TwoStars()
	dir := t.TempDir()
	keys := []sampleKey{
		{graph: "twostars", version: 1, engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 100, seed: 1},
		{graph: "twostars", version: 1, engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 100, seed: 2},
		{graph: "twostars", version: 1, engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 100, seed: 3},
	}
	c := diskCache(t, dir, 8)
	for _, key := range keys {
		if _, _, _, err := c.SampleFor(context.Background(), key, g, 1, nil); err != nil {
			t.Fatal(err)
		}
		c.WaitFlushes() // deterministic save order = key order
	}
	var total int64
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("%d files on disk, want 3", len(names))
	}
	// Separate the mtimes so the startup scan recovers the save order on
	// filesystems with coarse timestamps.
	now := time.Now()
	for i, key := range keys {
		path := c.disk.fileName(key)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
		mt := now.Add(time.Duration(i-len(keys)) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Reopening under a tighter bound prunes the least recently used
	// (oldest mtime) files at startup.
	d2, err := newDiskStore(dir, total-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.gcRemovals.Load(); got < 1 {
		t.Fatalf("gc removals = %d, want >= 1", got)
	}
	if _, err := os.Stat(d2.fileName(keys[0])); !os.IsNotExist(err) {
		t.Fatalf("oldest file should be pruned first: %v", err)
	}
	if _, err := os.Stat(d2.fileName(keys[2])); err != nil {
		t.Fatalf("newest file must survive the size bound: %v", err)
	}

	// An age bound drops everything older than the window.
	stale := time.Now().Add(-48 * time.Hour)
	for _, key := range keys[1:] {
		if err := os.Chtimes(d2.fileName(key), stale, stale); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	if _, err := newDiskStore(dir, 0, time.Hour); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d files survive a 1h age bound at 48h old", len(left))
	}

	// Save-path GC: with room for roughly one file, writing a second
	// evicts the first but never the file just written.
	c2 := NewCache(8)
	d4, err := newDiskStore(dir, total/3+16, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2.disk = d4
	t.Cleanup(c2.WaitFlushes)
	for _, key := range keys[:2] {
		if _, _, _, err := c2.SampleFor(context.Background(), key, g, 1, nil); err != nil {
			t.Fatal(err)
		}
		c2.WaitFlushes()
	}
	if _, err := os.Stat(d4.fileName(keys[1])); err != nil {
		t.Fatalf("just-written file evicted by its own GC pass: %v", err)
	}
	if _, err := os.Stat(d4.fileName(keys[0])); !os.IsNotExist(err) {
		t.Fatalf("LRU file should be evicted on save: %v", err)
	}
	if c2.Stats().DiskGCRemovals < 1 {
		t.Fatalf("stats = %+v, want disk gc removals", c2.Stats())
	}
}
