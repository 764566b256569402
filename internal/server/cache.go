package server

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fairtcim/internal/cascade"
	"fairtcim/internal/estimator"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
)

// sampleKey identifies one warm optimization sample. Everything the
// sample's distribution depends on is part of the key, so a cached entry
// can be reused verbatim by any request with matching parameters.
type sampleKey struct {
	graph string // registry name
	// version is the registry version of the graph snapshot the sample was
	// built from. Updates bump it, so post-update requests can never be
	// served a sketch drawn from the pre-update snapshot: they key to a
	// different entry (and a different disk file).
	version uint64
	engine  fairim.Engine
	model   cascade.Model // forward-MC world model (IC for RIS)
	// tau is the deadline RR sets are bounded by; always 0 for forward
	// MC, whose live-edge worlds are τ-independent — one world set serves
	// every deadline, so requests differing only in τ share the entry.
	tau    int32
	budget int   // RR sets per group (RIS) or live-edge worlds (forward MC); 0 when accuracy-sized
	seed   int64 // sampling seed
	// Accuracy-sized samples key by the (ε,δ) target and the seed-set
	// size the stopping rule unions over instead of an explicit budget.
	// All three are zero for explicitly budgeted samples.
	epsBits, deltaBits uint64
	sizingK            int
	// evalOnly marks an accuracy-sized sample that only estimates fixed
	// seed sets (/v1/estimate): forward-MC worlds need no candidate
	// union, so the pool is far smaller than a solve's and must not be
	// confused with one. RIS pools are solve-sized either way (shareable
	// with solves by construction, though keyed separately here).
	evalOnly bool
}

// sampleKeyFor maps a decoded spec onto the cache key: forward-MC keys by
// world count with τ omitted (worlds are τ-independent, so one set serves
// every deadline), RIS by per-group pool size and the τ that bounded the
// sketch (model pinned to IC, the only one RIS supports).
// Accuracy-targeted requests key by (ε, δ, sizing k) instead of a count —
// two requests demanding the same accuracy share one stopping-rule-sized
// sample.
func sampleKeyFor(graphName string, version uint64, g *graph.Graph, spec fairim.ProblemSpec, evalOnly bool) sampleKey {
	k := sampleKey{
		graph:   graphName,
		version: version,
		engine:  spec.Engine,
		model:   spec.Model,
		seed:    spec.Seed,
	}
	if spec.Engine == fairim.EngineRIS {
		k.model = cascade.IC
		k.tau = spec.Tau
	}
	if acc := spec.Sampling.Accuracy; acc != nil {
		k.epsBits = math.Float64bits(acc.Epsilon)
		k.deltaBits = math.Float64bits(acc.Delta)
		k.sizingK = spec.SizingSeeds(g)
		k.evalOnly = evalOnly
		return k
	}
	k.budget = sampleBudget(spec)
	return k
}

// sampleBudget is the explicit budget a spec's sketch is sized by: RR
// sets per group for RIS, worlds for forward MC. The other engine's
// count does not change the sketch, so neither key carries it.
func sampleBudget(spec fairim.ProblemSpec) int {
	if spec.Engine == fairim.EngineRIS {
		return spec.Sampling.RISPerGroup
	}
	return spec.Sampling.Samples
}

// sample is the cached, immutable artifact: an RR-sketch Collection or a
// live-edge world set. Both are read-only after sampling and safe to
// share across goroutines; per-request estimators are layered on top.
type sample struct {
	g      *graph.Graph
	col    *ris.Collection  // EngineRIS
	worlds []*cascade.World // EngineForwardMC
	// Refresh provenance, echoed in responses: when the sample was produced
	// by incrementally refreshing an earlier version's sketch, rrRefreshed
	// counts the RR sets that were resampled and rrRetained the ones
	// carried over verbatim. Both are zero for cold builds and disk loads.
	rrRefreshed int
	rrRetained  int
}

// newEstimator builds a fresh single-request estimator over the shared
// sample: coverage bitmaps for RIS, activation-time matrices for forward
// MC. The allocation is proportional to samples×N for forward MC, so
// handlers call this inside a worker slot, never per queued request, and
// only for a unit that evaluates a gain: a unit its prefix memo answers
// builds none. tau applies only to forward MC (a Collection is already
// bound to the τ it was sampled with).
func (s *sample) newEstimator(tau int32) (estimator.Estimator, error) {
	if s.col != nil {
		return ris.NewEstimator(s.col), nil
	}
	return influence.NewEvaluator(s.g, s.worlds, tau)
}

// payload encodes the sample with its engine's codec — the one place the
// server picks an encoder, shared by the disk tier and the sketch
// transfer endpoint. frameMeta stamps the matching kind and version.
func (s *sample) payload() []byte {
	if s.col != nil {
		return s.col.EncodePayload()
	}
	return cascade.EncodeWorlds(s.worlds)
}

// cacheEntry is one cache slot. ready is closed once sample/err are
// final, so concurrent requests for an in-flight key block on the same
// build instead of starting their own (singleflight). started is closed
// the moment the builder actually holds a worker slot and begins the
// load/build — before that the entry is only a reservation, and joiners
// whose gate bounds queueing may give up on it (see joinEntry).
type cacheEntry struct {
	key     sampleKey
	ready   chan struct{}
	started chan struct{}
	sample  *sample
	err     error
	elem    *list.Element
	buildMS float64
}

// Cache is the keyed estimator-sample cache: LRU over sampleKey with
// singleflight builds and an optional write-through disk tier. All
// exported access goes through SampleFor and Stats.
type Cache struct {
	// disk, when non-nil, persists every built sample and answers memory
	// misses before sampling. Loads run inside the singleflight, so disk
	// is read once per key; saves are write-behind (diskSaveAsync), off
	// the request path entirely. Set once before first use.
	disk *diskStore

	// history, when non-nil, answers "which arc heads changed between
	// versions a and b of this graph" so a memory+disk miss at version v
	// can refresh an in-memory sketch from an earlier version instead of
	// rebuilding cold. Set once before first use (to the Registry).
	history versionHistory

	// refreshThreshold is the dirty-set fraction above which an
	// incremental refresh falls back to a full rebuild; <=0 uses
	// ris.DefaultRefreshThreshold. Set once before first use.
	refreshThreshold float64

	// peers, when non-nil, answers memory+disk misses by fetching the
	// warm frame from another replica before sampling (sharded serving).
	// The fetch runs inside the singleflight like the disk load, so a key
	// goes over the wire at most once per process no matter the fan-in.
	// Set once before first use.
	peers peerSource

	// flushWG tracks write-behind disk saves in flight; flushing mirrors
	// it as a gauge for CacheStats. WaitFlushes drains it on shutdown.
	flushWG  sync.WaitGroup
	flushing atomic.Int64

	mu         sync.Mutex
	capacity   int
	entries    map[sampleKey]*cacheEntry
	lru        *list.List // of *cacheEntry; front = most recently used
	hits       int64      // requests served from an existing (or in-flight) entry
	misses     int64      // requests that had to start a build
	builds     int64      // samples actually built (not loaded from disk)
	evictions  int64      // entries dropped by the LRU
	diskHits   int64      // memory misses served from a persisted sample
	diskWrites int64      // built samples persisted successfully
	diskErrors int64      // unusable state files (corrupt/mismatched) or failed writes

	refreshes    int64 // misses served by incrementally refreshing an older version's sketch
	rrRefreshedN int64 // RR sets resampled across all refreshes
	rrRetainedN  int64 // RR sets carried over verbatim across all refreshes
	invalidated  int64 // entries dropped by graph updates (forward-MC world sets)
	superseded   int64 // entries dropped because the same key was published at a newer version

	// The seed-set prefix memo: solved greedy prefixes with their CELF
	// heap snapshots, so a larger-budget repeat of a solved problem
	// resumes where the smaller budget stopped instead of re-picking
	// from scratch. Keyed alongside (not inside) the sample entries —
	// a prefix stays useful even if its sample was evicted, since the
	// sample rebuilds bit-identically from its key.
	prefixCap    int
	prefix       map[prefixKey]*prefixEntry
	prefixLRU    *list.List // of *prefixEntry; front = most recently used
	prefixHits   int64
	prefixStores int64
}

// versionHistory is what the cache needs from the registry to refresh
// sketches across graph versions; see Registry.TouchedSince.
type versionHistory interface {
	TouchedSince(name string, from, to uint64) (heads []graph.NodeID, groupsChanged bool, ok bool)
}

// peerSource is the cache's hook into cross-replica sketch exchange: a
// nil return means no peer produced a usable sample (build cold). The
// implementation (clusterState.fetchSample) validates fetched frames as
// strictly as a disk load, so the cache can trust what it gets back.
type peerSource interface {
	fetchSample(ctx context.Context, key sampleKey, g *graph.Graph) *sample
}

// NewCache returns a cache holding at most capacity samples; capacity
// <= 0 defaults to 32. The prefix memo shares the same bound: snapshots
// are O(candidates) each, the same order as a sample's estimator.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 32
	}
	return &Cache{
		capacity:  capacity,
		entries:   map[sampleKey]*cacheEntry{},
		lru:       list.New(),
		prefixCap: capacity,
		prefix:    map[prefixKey]*prefixEntry{},
		prefixLRU: list.New(),
	}
}

// CacheStats snapshots cache effectiveness counters. A "hit" includes
// joining an in-flight build: the request did not sample anything. The
// disk counters stay zero unless the daemon runs with a state dir:
// DiskHits counts memory misses answered from persisted samples (no
// rebuild), DiskWrites completed write-behinds, DiskErrors rejected
// state files (corrupt, truncated, version- or graph-mismatched) plus
// failed writes — a missing file is a cold start, not an error.
// FlushesInFlight gauges write-behinds started but not yet on disk.
// The Prefix* counters track the seed-set prefix memo: PrefixHits are
// solves that warm-started from a memoized prefix, PrefixStores are
// prefixes (re)captured into the memo. Superseded counts ready entries
// dropped because the same key was published at a newer graph version.
type CacheStats struct {
	Entries         int   `json:"entries"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Builds          int64 `json:"builds"`
	Evictions       int64 `json:"evictions"`
	DiskHits        int64 `json:"disk_hits"`
	DiskWrites      int64 `json:"disk_writes"`
	DiskErrors      int64 `json:"disk_errors"`
	DiskGCRemovals  int64 `json:"disk_gc_removals"`
	FlushesInFlight int64 `json:"disk_flushes_inflight"`
	Refreshes       int64 `json:"refreshes"`
	RRRefreshed     int64 `json:"rr_refreshed"`
	RRRetained      int64 `json:"rr_retained"`
	Invalidated     int64 `json:"invalidated"`
	Superseded      int64 `json:"superseded"`
	PrefixEntries   int   `json:"prefix_entries"`
	PrefixHits      int64 `json:"prefix_hits"`
	PrefixStores    int64 `json:"prefix_stores"`
}

// Stats returns current counters.
func (c *Cache) Stats() CacheStats {
	inFlight := c.flushing.Load()
	var gcRemovals int64
	if c.disk != nil {
		gcRemovals = c.disk.gcRemovals.Load()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:         len(c.entries),
		Hits:            c.hits,
		Misses:          c.misses,
		Builds:          c.builds,
		Evictions:       c.evictions,
		DiskHits:        c.diskHits,
		DiskWrites:      c.diskWrites,
		DiskErrors:      c.diskErrors,
		DiskGCRemovals:  gcRemovals,
		FlushesInFlight: inFlight,
		Refreshes:       c.refreshes,
		RRRefreshed:     c.rrRefreshedN,
		RRRetained:      c.rrRetainedN,
		Invalidated:     c.invalidated,
		Superseded:      c.superseded,
		PrefixEntries:   len(c.prefix),
		PrefixHits:      c.prefixHits,
		PrefixStores:    c.prefixStores,
	}
}

// ErrCapacity is returned when a build cannot obtain a worker slot;
// handlers map it to 503.
var ErrCapacity = errors.New("server at capacity")

// errBuildAbandoned resolves an entry whose would-be builder never
// started the build: its request context was cancelled while queued
// (client disconnect) or its own gate shed it at capacity. It is never
// returned to callers — the abandoning builder reports its own error
// (ctx.Err() or ErrCapacity), and singleflight joiners that observe it
// retry the key under their *own* gate policy. That keeps queueing
// policies from leaking across request classes: an async job joining a
// synchronous request's build must not inherit the sync path's
// queue-timeout 503 (jobs wait as long as they must), and nobody
// inherits a cancellation they did not issue.
var errBuildAbandoned = errors.New("server: sample build abandoned before start")

// workerGate bounds CPU-heavy phases (sample builds, solves). A nil gate
// means unbounded. Only the goroutine that actually builds a sample holds
// a slot; singleflight joiners wait slot-free on the entry.
type workerGate interface {
	acquire(ctx context.Context) bool
	release()
}

// joinBounded is the optional workerGate refinement for gates whose
// queueing policy sheds after a timeout (the synchronous request path):
// such a gate also bounds how long its requests wait for someone else's
// not-yet-started build. Without it (async jobs, nil gates, tests) a
// joiner waits as long as its context allows.
type joinBounded interface {
	joinBound() time.Duration
}

// joinEntry waits for another caller's in-flight entry to resolve. A
// bounded gate waits at most its bound for the build to *start*: a
// synchronous request that singleflight-joins a build reserved by a
// queued async job (which may sit behind a saturated worker pool far
// longer than any queue timeout) must shed like the rest of its class
// instead of hanging until the client gives up. Once the build has
// started, the joiner commits regardless of the bound — the sample is
// actively being produced and abandoning it would only duplicate work.
func joinEntry(ctx context.Context, e *cacheEntry, gate workerGate) error {
	if bg, ok := gate.(joinBounded); ok {
		if bound := bg.joinBound(); bound > 0 {
			timer := time.NewTimer(bound)
			defer timer.Stop()
			select {
			case <-e.ready:
				return nil
			case <-e.started:
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
				select {
				case <-e.started: // started right at the deadline: commit
				case <-e.ready:
					return nil
				default:
					return ErrCapacity
				}
			}
		}
	}
	select {
	case <-e.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SampleFor returns the shared, read-only sample for key, building it at
// most once across concurrent callers. The build runs inside gate;
// joiners of an in-flight build hold no slot while they wait, but
// respect ctx cancellation. Callers layer a per-request estimator on top
// with sample.newEstimator — inside their own worker slot, since that
// allocation is not free. hit reports whether the sample was reused
// (including joining an in-flight build, or loading a persisted sample
// from the disk tier instead of re-sampling); buildMS is the wall time
// whichever request built (or loaded) the entry spent, echoed to every
// request that reuses it.
func (c *Cache) SampleFor(ctx context.Context, key sampleKey, g *graph.Graph, parallelism int, gate workerGate) (smp *sample, hit bool, buildMS float64, err error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok {
			c.hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			if err := joinEntry(ctx, e, gate); err != nil {
				return nil, true, 0, err
			}
			if e.err == errBuildAbandoned {
				// The would-be builder was cancelled or shed before the
				// build started and the entry was dropped; take over.
				continue
			}
			if e.err != nil {
				return nil, true, e.buildMS, e.err
			}
			return e.sample, true, e.buildMS, nil
		}
		c.misses++
		e = &cacheEntry{key: key, ready: make(chan struct{}), started: make(chan struct{})}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.evictLocked()
		c.mu.Unlock()

		// The entry is registered, so the build MUST be resolved on every
		// path or joiners would block forever.
		if gate != nil && !gate.acquire(ctx) {
			// The build never started: resolve the entry with the internal
			// retry sentinel so joiners rebuild under their own gates, and
			// report this caller's own failure — its cancellation if the
			// context died, a capacity shed otherwise.
			e.err = errBuildAbandoned
			c.dropEntry(e)
			close(e.ready)
			if cerr := ctx.Err(); cerr != nil {
				return nil, false, 0, cerr
			}
			return nil, false, 0, ErrCapacity
		}
		close(e.started) // slot held: bounded joiners now commit to the wait
		start := time.Now()
		diskHit := false
		peerHit := false
		if smp := c.diskLoad(key, g); smp != nil {
			e.sample, diskHit = smp, true
		} else if smp := c.refreshFrom(key, g, parallelism, ctx.Done()); smp != nil {
			// An older version's in-memory sketch was refreshed in place of
			// a cold build; it is persisted below like any fresh build.
			e.sample = smp
		} else if smp := c.peerLoad(ctx, key, g); smp != nil {
			// A warm peer answered the miss: the frame validated like a
			// state file and nothing was sampled. Persisted below like a
			// fresh build, so the next restart is warm without the peer.
			e.sample, peerHit = smp, true
		} else {
			c.mu.Lock()
			c.builds++
			c.mu.Unlock()
			e.sample, e.err = buildSample(key, g, parallelism, ctx.Done())
		}
		e.buildMS = float64(time.Since(start).Microseconds()) / 1000
		if gate != nil {
			gate.release()
		}
		if e.err != nil && ctx.Err() != nil && errors.Is(e.err, context.Canceled) {
			// The build died of this caller's own mid-sampling
			// cancellation (client disconnect, job DELETE). Joiners must
			// not inherit a cancellation they did not issue: resolve with
			// the retry sentinel and report the context error here only.
			e.err = errBuildAbandoned
			c.dropEntry(e)
			close(e.ready)
			return nil, false, e.buildMS, ctx.Err()
		}
		if e.err != nil {
			// Drop failed builds so the next request can retry.
			c.dropEntry(e)
			close(e.ready)
			return nil, false, e.buildMS, e.err
		}
		close(e.ready)
		c.supersede(key)
		if !diskHit {
			// Write-behind: the response never waits on the disk tier.
			c.diskSaveAsync(key, e.sample)
		}
		// A disk-loaded or peer-fetched sample counts as a hit: nothing
		// was sampled, the replica started warm.
		return e.sample, diskHit || peerHit, e.buildMS, nil
	}
}

// peerLoad tries the cluster for key's warm frame; nil without peers.
// Counter bumps (peer_fetches, peer_fetch_errors) happen inside the
// peerSource, which owns the cluster counters.
func (c *Cache) peerLoad(ctx context.Context, key sampleKey, g *graph.Graph) *sample {
	if c.peers == nil {
		return nil
	}
	return c.peers.fetchSample(ctx, key, g)
}

// peek returns the ready, error-free sample cached under key without
// joining or starting any build — the sketch transfer endpoint's read:
// either the frame is warm right now, or the peer is told 404 and moves
// on. Serving a peer counts as a use for the LRU.
func (c *Cache) peek(key sampleKey) *sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	select {
	case <-e.ready:
	default:
		return nil
	}
	if e.err != nil {
		return nil
	}
	c.lru.MoveToFront(e.elem)
	return e.sample
}

// diskLoad tries the persisted sample for key. Any unusable state file is
// counted and ignored — persistence can only ever make a request faster,
// never fail it.
func (c *Cache) diskLoad(key sampleKey, g *graph.Graph) *sample {
	if c.disk == nil {
		return nil
	}
	smp, err := c.disk.load(key, g)
	if err != nil {
		c.mu.Lock()
		c.diskErrors++
		c.mu.Unlock()
		return nil
	}
	if smp == nil {
		return nil
	}
	c.mu.Lock()
	c.diskHits++
	c.mu.Unlock()
	return smp
}

// diskSave writes a freshly built sample to disk, counting the outcome.
func (c *Cache) diskSave(key sampleKey, smp *sample) {
	if c.disk == nil {
		return
	}
	err := c.disk.save(key, smp)
	c.mu.Lock()
	if err != nil {
		c.diskErrors++
	} else {
		c.diskWrites++
	}
	c.mu.Unlock()
}

// diskSaveAsync persists a built sample in the background: the request
// that built it is served the moment the sample is ready, and the disk
// tier catches up behind it. Samples are immutable after the build, so
// the flush goroutine needs no synchronization beyond the counters.
func (c *Cache) diskSaveAsync(key sampleKey, smp *sample) {
	if c.disk == nil {
		return
	}
	c.flushWG.Add(1)
	c.flushing.Add(1)
	go func() {
		defer c.flushWG.Done()
		defer c.flushing.Add(-1)
		c.diskSave(key, smp)
	}()
}

// WaitFlushes blocks until every write-behind started so far has hit
// disk. The daemon calls it on shutdown so a restart finds every built
// sketch persisted; tests call it before asserting on-disk state.
func (c *Cache) WaitFlushes() { c.flushWG.Wait() }

// refreshFrom tries to satisfy a memory+disk miss at key.version by
// incrementally refreshing a resident sketch of the same shape built at an
// earlier version of the same graph: only RR sets containing a touched arc
// head are resampled, the rest carry over verbatim. Returns nil when the
// miss must build cold instead — no version history, no eligible source
// entry, group labels moved, or the engine/sizing rules it out
// (accuracy-sized keys re-run their stopping rule from scratch so the
// sizing itself reflects the new graph; forward-MC worlds realize every
// edge coin and never survive a delta).
func (c *Cache) refreshFrom(key sampleKey, g *graph.Graph, parallelism int, cancel <-chan struct{}) *sample {
	if c.history == nil || key.engine != fairim.EngineRIS || key.epsBits != 0 || key.version <= 1 {
		return nil
	}
	// Newest ready, error-free entry whose key differs only by an earlier
	// version.
	c.mu.Lock()
	var src *cacheEntry
	for k, e := range c.entries {
		if k.version == 0 || !olderVersionOf(k, key) {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue
		}
		if e.err != nil || e.sample == nil || e.sample.col == nil {
			continue
		}
		if src == nil || k.version > src.key.version {
			src = e
		}
	}
	c.mu.Unlock()
	if src == nil {
		return nil
	}
	heads, groupsChanged, ok := c.history.TouchedSince(key.graph, src.key.version, key.version)
	if !ok || groupsChanged {
		return nil
	}
	// Mix the target version into the refresh seed so resampled sets never
	// replay the exact coin streams that produced the dirty sets they
	// replace (key.seed alone would).
	seed := key.seed ^ int64(key.version*0x9E3779B97F4A7C15)
	col, stats, err := src.sample.col.Refresh(g, heads, seed, parallelism, c.refreshThreshold, cancel)
	if err != nil {
		return nil // cold build will surface its own error/cancellation
	}
	c.mu.Lock()
	if stats.FullRebuild {
		// Refresh bailed to a full resample (dirty fraction above the
		// threshold): the work is a cold build and is counted as one.
		c.builds++
	} else {
		c.refreshes++
		c.rrRefreshedN += int64(stats.Refreshed)
		c.rrRetainedN += int64(stats.Retained)
	}
	c.mu.Unlock()
	if stats.FullRebuild {
		return &sample{g: g, col: col}
	}
	return &sample{g: g, col: col, rrRefreshed: stats.Refreshed, rrRetained: stats.Retained}
}

// invalidateGraph drops cached forward-MC world sets for the named graph
// after an update. Live-edge worlds realize every edge coin, so none
// survive a delta — unlike RR sketches, which stay resident as refresh
// sources until the next version's sketch for the same key is published
// and supersedes them (see supersede).
// Returns how many entries were dropped and how many of their worlds
// realized at least one touched arc, for the update response.
func (c *Cache) invalidateGraph(name string, arcs []graph.Arc) (dropped, worldsTouched int) {
	c.mu.Lock()
	var victims []*cacheEntry
	for k, e := range c.entries {
		if k.graph != name || k.engine == fairim.EngineRIS {
			continue
		}
		select {
		case <-e.ready:
		default:
			// In-flight build: its key binds it to the pre-update snapshot,
			// which stays correct for requests at that version; leave it to
			// resolve and age out.
			continue
		}
		victims = append(victims, e)
	}
	for _, e := range victims {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
		c.invalidated++
		dropped++
	}
	c.mu.Unlock()
	for _, e := range victims {
		if e.err == nil && e.sample != nil && e.sample.worlds != nil {
			worldsTouched += cascade.WorldsTouchedByArcs(e.sample.worlds, arcs)
		}
	}
	return dropped, worldsTouched
}

// supersede drops what publishing key leaves without a use: every ready
// entry whose key differs from key only by an older graph version, and
// every prefix memo keyed on such a sample. Each one pins its graph
// snapshot, and refreshFrom only ever reads the newest older version,
// which from now on is key itself. A request still pinned to an old
// version gets a correct answer from the disk tier's file or a cold
// build. In-flight entries stay: their joiners wait on them.
func (c *Cache) supersede(key sampleKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if !olderVersionOf(k, key) {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue
		}
		delete(c.entries, k)
		c.lru.Remove(e.elem)
		c.superseded++
	}
	for pk, pe := range c.prefix {
		if olderVersionOf(pk.sample, key) {
			delete(c.prefix, pk)
			c.prefixLRU.Remove(pe.elem)
		}
	}
}

// olderVersionOf reports whether k is key at an earlier graph version.
func olderVersionOf(k, key sampleKey) bool {
	if k.version >= key.version {
		return false
	}
	k.version = key.version
	return k == key
}

// dropEntry removes e from the index if it is still the current entry for
// its key.
func (c *Cache) dropEntry(e *cacheEntry) {
	c.mu.Lock()
	if cur, still := c.entries[e.key]; still && cur == e {
		delete(c.entries, e.key)
		c.lru.Remove(e.elem)
	}
	c.mu.Unlock()
}

// evictLocked drops least-recently-used *ready* entries beyond capacity.
// In-flight entries are never evicted: dropping one would let an
// identical request start a duplicate build, breaking the
// one-build-per-key singleflight guarantee. If every entry is still
// building, the cache temporarily overflows and the next insertion
// evicts the backlog.
func (c *Cache) evictLocked() {
	for len(c.entries) > c.capacity {
		evicted := false
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			select {
			case <-e.ready:
				c.lru.Remove(el)
				delete(c.entries, e.key)
				c.evictions++
				evicted = true
			default: // in flight; keep
			}
			if evicted {
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// buildSample draws the optimization sample key describes. Accuracy keys
// resolve their budget here — inside the singleflight, so the (possibly
// doubling) sizing run happens once per key no matter the fan-in. cancel
// aborts the sampling loops cooperatively (context.Canceled): a client
// that disconnects mid-build stops burning worker time on a sample
// nobody is waiting for.
func buildSample(key sampleKey, g *graph.Graph, parallelism int, cancel <-chan struct{}) (*sample, error) {
	if key.epsBits != 0 {
		eps := math.Float64frombits(key.epsBits)
		delta := math.Float64frombits(key.deltaBits)
		if key.engine == fairim.EngineRIS {
			col, err := ris.SampleForAccuracyCancel(g, key.tau, key.sizingK, eps, delta, key.seed, parallelism, cancel)
			if err != nil {
				return nil, err
			}
			return &sample{g: g, col: col}, nil
		}
		var m int
		if key.evalOnly {
			// Fixed-seed-set estimation: no candidate union, the per-set
			// Hoeffding count suffices.
			var err error
			m, err = fairim.EvalWorlds(fairim.Accuracy{Epsilon: eps, Delta: delta}, g.NumGroups())
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			m, err = fairim.HoeffdingWorlds(eps, delta, key.sizingK, g.N(), g.NumGroups())
			if err != nil {
				return nil, err
			}
		}
		worlds, err := cascade.SampleWorldsCancel(g, key.model, m, key.seed, parallelism, cancel)
		if err != nil {
			return nil, err
		}
		return &sample{g: g, worlds: worlds}, nil
	}
	if key.engine == fairim.EngineRIS {
		perGroup := make([]int, g.NumGroups())
		for i := range perGroup {
			perGroup[i] = key.budget
		}
		col, err := ris.SampleCancel(g, key.tau, perGroup, key.seed, parallelism, cancel)
		if err != nil {
			return nil, err
		}
		return &sample{g: g, col: col}, nil
	}
	worlds, err := cascade.SampleWorldsCancel(g, key.model, key.budget, key.seed, parallelism, cancel)
	if err != nil {
		return nil, err
	}
	return &sample{g: g, worlds: worlds}, nil
}
