package server

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairtcim/internal/cascade"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/submodular"
)

func tinyKey(seed int64) sampleKey {
	return sampleKey{
		graph:  "twostars",
		engine: fairim.EngineForwardMC,
		model:  cascade.IC,
		budget: 5,
		seed:   seed,
	}
}

func TestCacheLRUEviction(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(2)
	for seed := int64(1); seed <= 3; seed++ {
		if _, _, _, err := c.SampleFor(context.Background(), tinyKey(seed), g, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Builds != 3 {
		t.Fatalf("after 3 inserts into capacity 2: %+v", st)
	}
	// Key 1 was least recently used and must have been evicted: asking
	// again rebuilds. Key 3 is still warm.
	if _, hit, _, err := c.SampleFor(context.Background(), tinyKey(1), g, 1, nil); err != nil || hit {
		t.Fatalf("evicted key reported hit=%v err=%v", hit, err)
	}
	if _, hit, _, err := c.SampleFor(context.Background(), tinyKey(3), g, 1, nil); err != nil || !hit {
		t.Fatalf("recent key reported hit=%v err=%v", hit, err)
	}
	st = c.Stats()
	if st.Builds != 4 || st.Hits != 1 {
		t.Fatalf("final stats: %+v", st)
	}
}

func TestCacheConcurrentSingleflight(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	key := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 2000, seed: 1}
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			smp, _, _, err := c.SampleFor(context.Background(), key, g, 1, nil)
			if err != nil || smp == nil {
				t.Errorf("SampleFor: smp=%v err=%v", smp, err)
				return
			}
			if est, err := smp.newEstimator(3); err != nil || est == nil {
				t.Errorf("newEstimator: est=%v err=%v", est, err)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Builds != 1 || st.Hits+st.Misses != workers {
		t.Fatalf("singleflight violated: %+v", st)
	}
}

// TestCacheInFlightEntriesSurviveEviction overflows a capacity-1 cache
// while a build is still in flight: the in-flight entry must not be
// evicted (that would allow a duplicate build of the same key).
func TestCacheInFlightEntriesSurviveEviction(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(1)
	slow := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 60000, seed: 1}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(context.Background(), slow, g, 1, nil)
		done <- err
	}()
	// Insert another key while the slow build is (very likely) in flight.
	if _, _, _, err := c.SampleFor(context.Background(), tinyKey(9), g, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The slow key must still be resident: re-requesting it is a hit.
	if _, hit, _, err := c.SampleFor(context.Background(), slow, g, 1, nil); err != nil || !hit {
		t.Fatalf("in-flight entry was evicted: hit=%v err=%v (stats %+v)", hit, err, c.Stats())
	}
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("duplicate build after eviction of in-flight entry: %+v", st)
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	bad := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: -1, budget: 10, seed: 1}
	if _, _, _, err := c.SampleFor(context.Background(), bad, g, 1, nil); err == nil {
		t.Fatal("negative-τ RIS build should fail")
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("failed build left a cache entry: %+v", st)
	}
	// The same key is retried, not served the stale error.
	if _, _, _, err := c.SampleFor(context.Background(), bad, g, 1, nil); err == nil {
		t.Fatal("retry should re-run the failing build")
	}
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("retry did not rebuild: %+v", st)
	}
}

// TestRegistryConcurrentLoadOnce checks that concurrent Gets share one
// load and that introspection is not blocked behind it.
func TestRegistryConcurrentLoadOnce(t *testing.T) {
	reg := NewRegistry()
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	if err := reg.Register("slow", "test", func() (*graph.Graph, error) {
		loads.Add(1)
		close(started)
		<-release
		return generate.TwoStars(), nil
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Get("slow"); err != nil {
				t.Errorf("Get: %v", err)
			}
		}()
	}
	<-started
	// Introspection must return while the load is still in flight.
	if info := reg.Info(); len(info) != 1 || info[0].Loaded {
		t.Fatalf("Info during load: %+v", info)
	}
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
}

func TestRegistryUnknownAndDuplicate(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("err = %v, want ErrUnknownGraph", err)
	}
	if err := reg.RegisterGraph("g", "test", generate.TwoStars()); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterGraph("g", "test", generate.TwoStars()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRegistryFileRoundtripAndRetry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	reg := NewRegistry()
	if err := reg.RegisterFile("late", path); err != nil {
		t.Fatal(err)
	}
	// File does not exist yet: load fails but is not cached as permanent.
	if _, err := reg.Get("late"); err == nil {
		t.Fatal("expected load failure for missing file")
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(f, generate.TwoStars()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := reg.Get("late")
	if err != nil {
		t.Fatalf("retry after file appeared: %v", err)
	}
	if g.N() != 17 {
		t.Fatalf("roundtrip graph has %d nodes, want 17", g.N())
	}
	// Loaded graphs are shared, not re-read.
	g2, err := reg.Get("late")
	if err != nil || g2 != g {
		t.Fatalf("second Get returned a different graph (err=%v)", err)
	}
}

// ctxGate blocks in acquire until its context is cancelled — the shape of
// a client disconnecting while queued for a worker slot.
type ctxGate struct {
	entered chan struct{} // closed once acquire is reached
}

func (g *ctxGate) acquire(ctx context.Context) bool {
	close(g.entered)
	<-ctx.Done()
	return false
}
func (g *ctxGate) release() {}

// TestSampleForCancelIsNotCapacity: a request cancelled while waiting for
// its build slot reports its own context error — not ErrCapacity — and
// must not poison the entry: the next request for the key builds cleanly.
func TestSampleForCancelIsNotCapacity(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	key := tinyKey(1)

	ctx, cancel := context.WithCancel(context.Background())
	gate := &ctxGate{entered: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(ctx, key, g, 1, gate)
		errc <- err
	}()
	<-gate.entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled builder got %v, want context.Canceled", err)
	}

	// The key is not poisoned: a fresh request builds and succeeds.
	smp, hit, _, err := c.SampleFor(context.Background(), key, g, 1, nil)
	if err != nil || smp == nil {
		t.Fatalf("retry after cancellation: smp=%v err=%v", smp, err)
	}
	if hit {
		t.Error("retry after cancellation reported a hit")
	}
	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("stats after cancel + retry: %+v", st)
	}
}

// TestSampleForJoinerSurvivesBuilderCancel: a singleflight joiner of an
// entry whose builder's client disconnected before the build started must
// not inherit a spurious error — it retries the key and builds itself.
func TestSampleForJoinerSurvivesBuilderCancel(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	key := tinyKey(2)

	ctx, cancel := context.WithCancel(context.Background())
	gate := &ctxGate{entered: make(chan struct{})}
	builderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(ctx, key, g, 1, gate)
		builderErr <- err
	}()
	// The entry is registered before the gate is entered, so once the
	// gate reports in, a second request is guaranteed to join it.
	<-gate.entered
	joiner := make(chan error, 1)
	go func() {
		smp, _, _, err := c.SampleFor(context.Background(), key, g, 1, nil)
		if err == nil && smp == nil {
			err = errors.New("nil sample without error")
		}
		joiner <- err
	}()
	cancel()
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder got %v, want context.Canceled", err)
	}
	if err := <-joiner; err != nil {
		t.Fatalf("joiner inherited the builder's cancellation: %v", err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("stats after joiner takeover: %+v", st)
	}
}

// TestSampleForCapacityStillSheds: a genuine slot-acquisition failure
// with a live request context is still ErrCapacity.
func TestSampleForCapacityStillSheds(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	if _, _, _, err := c.SampleFor(context.Background(), tinyKey(3), g, 1, deniedGate{}); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	// The failed entry is dropped, so a later request can succeed.
	if _, _, _, err := c.SampleFor(context.Background(), tinyKey(3), g, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// deniedGate refuses every acquire with the context still live — pure
// saturation.
type deniedGate struct{}

func (deniedGate) acquire(context.Context) bool { return false }
func (deniedGate) release()                     {}

// TestSampleForJoinerSurvivesBuilderShed: a joiner whose builder was shed
// at capacity retries under its own gate policy instead of inheriting the
// builder's 503 — an async job joining a synchronous request's build must
// not fail with the sync path's queue-timeout error.
func TestSampleForJoinerSurvivesBuilderShed(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	key := tinyKey(4)

	gate := &shedGate{entered: make(chan struct{}), shed: make(chan struct{})}
	builderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(context.Background(), key, g, 1, gate)
		builderErr <- err
	}()
	<-gate.entered
	joiner := make(chan error, 1)
	go func() {
		smp, _, _, err := c.SampleFor(context.Background(), key, g, 1, nil)
		if err == nil && smp == nil {
			err = errors.New("nil sample without error")
		}
		joiner <- err
	}()
	close(gate.shed) // the builder's gate times out: capacity refusal
	if err := <-builderErr; !errors.Is(err, ErrCapacity) {
		t.Fatalf("shed builder got %v, want ErrCapacity", err)
	}
	if err := <-joiner; err != nil {
		t.Fatalf("joiner inherited the builder's capacity shed: %v", err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("stats after joiner takeover: %+v", st)
	}
}

// shedGate blocks in acquire until told to shed, then refuses with the
// context still live — a queue-timeout capacity refusal.
type shedGate struct {
	entered chan struct{}
	shed    chan struct{}
}

func (g *shedGate) acquire(context.Context) bool {
	close(g.entered)
	<-g.shed
	return false
}
func (g *shedGate) release() {}

// boundGate grants every slot immediately but bounds how long its
// requests wait on a not-yet-started build — the shape of the
// synchronous request path (serverGate with a queue timeout).
type boundGate struct{ bound time.Duration }

func (boundGate) acquire(context.Context) bool { return true }
func (boundGate) release()                     {}
func (g boundGate) joinBound() time.Duration   { return g.bound }

// trackGate closes entered once it holds its slot and then grants it —
// used to observe the moment a build actually starts.
type trackGate struct{ entered chan struct{} }

func (g *trackGate) acquire(context.Context) bool { close(g.entered); return true }
func (g *trackGate) release()                     {}

// TestBoundedJoinerShedsUnstartedBuild: a bounded joiner must not wait
// out another caller's build that has not even started (its builder is
// still queued for a slot, possibly far longer than any queue timeout) —
// it sheds with ErrCapacity after its bound, like the rest of its class.
func TestBoundedJoinerShedsUnstartedBuild(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	key := tinyKey(5)

	gate := &shedGate{entered: make(chan struct{}), shed: make(chan struct{})}
	builderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(context.Background(), key, g, 1, gate)
		builderErr <- err
	}()
	<-gate.entered

	// The entry is a reservation without a slot; the bounded joiner sheds.
	if _, _, _, err := c.SampleFor(context.Background(), key, g, 1, boundGate{bound: 20 * time.Millisecond}); !errors.Is(err, ErrCapacity) {
		t.Fatalf("bounded joiner got %v, want ErrCapacity", err)
	}

	close(gate.shed)
	if err := <-builderErr; !errors.Is(err, ErrCapacity) {
		t.Fatalf("shed builder got %v, want ErrCapacity", err)
	}
	// With the reservation gone the same bounded gate builds cleanly.
	if smp, _, _, err := c.SampleFor(context.Background(), key, g, 1, boundGate{bound: 20 * time.Millisecond}); err != nil || smp == nil {
		t.Fatalf("bounded rebuild: smp=%v err=%v", smp, err)
	}
}

// TestBoundedJoinerCommitsToStartedBuild: once the build holds a worker
// slot a bounded joiner commits to the wait however slow the build is —
// abandoning an in-flight build would only duplicate work.
func TestBoundedJoinerCommitsToStartedBuild(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	slow := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 60000, seed: 6}

	gate := &trackGate{entered: make(chan struct{})}
	builderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(context.Background(), slow, g, 1, gate)
		builderErr <- err
	}()
	<-gate.entered
	smp, hit, _, err := c.SampleFor(context.Background(), slow, g, 1, boundGate{bound: 250 * time.Millisecond})
	if err != nil || smp == nil {
		t.Fatalf("bounded joiner of a started build: smp=%v err=%v", smp, err)
	}
	if !hit {
		t.Error("joiner did not report a hit")
	}
	if err := <-builderErr; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("joiner duplicated the build: %+v", st)
	}
}

// TestSampleForBuilderCancelMidBuild: a builder whose client disconnects
// while sampling is already running stops early with its own
// context.Canceled — the cancel channel reaches the sampling loops — and
// joiners do not inherit it: the key retries and builds cleanly.
func TestSampleForBuilderCancelMidBuild(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	slow := sampleKey{graph: "twostars", engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 200000, seed: 7}

	ctx, cancel := context.WithCancel(context.Background())
	gate := &trackGate{entered: make(chan struct{})}
	builderErr := make(chan error, 1)
	go func() {
		_, _, _, err := c.SampleFor(ctx, slow, g, 1, gate)
		builderErr <- err
	}()
	<-gate.entered
	joiner := make(chan error, 1)
	go func() {
		smp, _, _, err := c.SampleFor(context.Background(), slow, g, 1, nil)
		if err == nil && smp == nil {
			err = errors.New("nil sample without error")
		}
		joiner <- err
	}()
	cancel()
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled builder got %v, want context.Canceled", err)
	}
	if err := <-joiner; err != nil {
		t.Fatalf("joiner inherited the mid-build cancellation: %v", err)
	}
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("stats after mid-build cancel + retry: %+v", st)
	}
}

// risKey is an explicitly budgeted RIS key on the two-star fixture at
// graph version v.
func risKey(v uint64) sampleKey {
	return sampleKey{graph: "twostars", version: v, engine: fairim.EngineRIS, model: cascade.IC, tau: 3, budget: 40, seed: 1}
}

// TestCacheSupersedesOlderVersions: publishing a key at version v drops
// exactly the ready entries whose key differs only by an older version —
// keys that differ in seed, τ, budget, engine or accuracy stay — and
// counts each dropped entry in superseded. A request pinned to a
// superseded version rebuilds it without dropping the newer one.
func TestCacheSupersedesOlderVersions(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(32)
	get := func(k sampleKey) {
		t.Helper()
		if _, _, _, err := c.SampleFor(context.Background(), k, g, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	base := risKey(1)
	seed, tau, budget, engine, accuracy := base, base, base, base, base
	seed.seed = 2
	tau.tau = 4
	budget.budget = 50
	engine.engine, engine.tau, engine.budget = fairim.EngineForwardMC, 0, 5
	accuracy.budget = 0
	accuracy.epsBits, accuracy.deltaBits, accuracy.sizingK = math.Float64bits(0.5), math.Float64bits(0.5), 2
	untouched := []sampleKey{seed, tau, budget, engine, accuracy}
	for _, k := range untouched {
		get(k)
	}
	v2 := risKey(2)
	get(v2)
	get(base) // published after v2: older than nothing, drops nothing
	if st := c.Stats(); st.Superseded != 0 || st.Entries != len(untouched)+2 {
		t.Fatalf("before v3: %+v", st)
	}

	get(risKey(3))
	if st := c.Stats(); st.Superseded != 2 || st.Entries != len(untouched)+1 {
		t.Fatalf("publishing v3 should drop v1 and v2 only: %+v", st)
	}
	for _, k := range []sampleKey{base, v2} {
		if c.peek(k) != nil {
			t.Errorf("superseded entry at v%d still cached", k.version)
		}
	}
	for _, k := range append(untouched, risKey(3)) {
		if c.peek(k) == nil {
			t.Errorf("entry %+v dropped by another key's publication", k)
		}
	}

	// A select pinned to v2 after v3's publication misses, rebuilds and
	// leaves v3 alone.
	get(v2)
	if st := c.Stats(); st.Superseded != 2 || c.peek(risKey(3)) == nil {
		t.Fatalf("stale publish dropped a newer entry: %+v", st)
	}
}

// holdGate blocks in acquire until released, then grants the slot — a
// build held in flight for as long as a test needs.
type holdGate struct {
	entered chan struct{}
	proceed chan struct{}
}

func (g *holdGate) acquire(context.Context) bool {
	close(g.entered)
	<-g.proceed
	return true
}
func (g *holdGate) release() {}

// TestCacheSupersedeKeepsInFlight: an older version's build still in
// flight when a newer version publishes is left alone — its joiners are
// waiting on it — and resolves normally.
func TestCacheSupersedeKeepsInFlight(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	gate := &holdGate{entered: make(chan struct{}), proceed: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		smp, _, _, err := c.SampleFor(context.Background(), risKey(1), g, 1, gate)
		if err == nil && smp == nil {
			err = errors.New("nil sample without error")
		}
		done <- err
	}()
	<-gate.entered
	if _, _, _, err := c.SampleFor(context.Background(), risKey(2), g, 1, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Superseded != 0 || st.Entries != 2 {
		t.Fatalf("in-flight v1 entry was superseded: %+v", st)
	}
	close(gate.proceed)
	if err := <-done; err != nil {
		t.Fatalf("in-flight build after a newer publication: %v", err)
	}
	if c.peek(risKey(1)) == nil || c.peek(risKey(2)) == nil {
		t.Fatal("both versions should be cached once the old build resolves")
	}
}

// TestCacheSupersedeDropsOnlyOlderPrefixes: publishing a version drops
// the prefix memos keyed on older versions of the same sample, whether or
// not their sample entry is still cached, and only those. Memo drops are
// not counted as superseded entries.
func TestCacheSupersedeDropsOnlyOlderPrefixes(t *testing.T) {
	g := generate.TwoStars()
	c := NewCache(8)
	warm := &fairim.WarmStart{Seeds: []graph.NodeID{0}, Snapshot: &submodular.LazySnapshot{}}
	other := risKey(1)
	other.seed = 2
	older := []prefixKey{
		{sample: risKey(1), problem: fairim.P1, tau: 3},
		{sample: risKey(1), problem: fairim.P4, tau: 3, h: "log"},
	}
	kept := []prefixKey{
		{sample: risKey(2), problem: fairim.P1, tau: 3},
		{sample: risKey(3), problem: fairim.P1, tau: 3},
		{sample: other, problem: fairim.P1, tau: 3},
	}
	for _, pk := range append(append([]prefixKey{}, older...), kept...) {
		c.storeWarm(pk, warm)
	}
	if _, _, _, err := c.SampleFor(context.Background(), risKey(2), g, 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, pk := range older {
		if _, ok := c.prefix[pk]; ok {
			t.Errorf("older-version prefix memo %+v survived", pk)
		}
	}
	for _, pk := range kept {
		if _, ok := c.prefix[pk]; !ok {
			t.Errorf("prefix memo %+v dropped", pk)
		}
	}
	if st := c.Stats(); st.PrefixEntries != len(kept) || st.Superseded != 0 {
		t.Fatalf("stats after publication: %+v", st)
	}
}
