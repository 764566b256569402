package server

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"fairtcim/internal/graph"
)

// ErrUnknownGraph marks lookups of names never registered; handlers map
// it to 404 while load failures stay 500.
var ErrUnknownGraph = errors.New("unknown graph")

// ErrVersionConflict marks a graph update whose expect_version did not
// match the registry's current version — the caller raced another update
// and must re-read before retrying; handlers map it to 409.
var ErrVersionConflict = errors.New("graph version conflict")

// deltaHistory bounds how many applied delta batches a graph entry
// remembers for incremental sketch refresh. A sketch more than this many
// versions behind the current graph rebuilds cold instead.
const deltaHistory = 64

// Loader produces a graph on first use. Loaders run at most once
// successfully; a failed load is retried on the next request for the
// graph (so a file that appears after startup becomes servable).
type Loader func() (*graph.Graph, error)

// regEntry is one named graph with its lazily-loaded result. The loader
// runs outside mu so introspection never blocks behind a slow load;
// loading marks an in-flight load and is closed when it resolves.
//
// After an update, g points at a NEW immutable snapshot and version is
// bumped; in-flight solves keep reading the snapshot they grabbed, so a
// batch is never half-visible. history remembers which arc heads each
// recent batch touched so sketches a few versions behind can refresh
// incrementally instead of rebuilding.
type regEntry struct {
	source string

	mu      sync.Mutex
	loader  Loader        // nil once a load has succeeded
	loading chan struct{} // non-nil while a load is in flight
	g       *graph.Graph  // non-nil once successfully loaded
	version uint64        // 1 after first load, +1 per applied batch
	history []deltaRec    // most recent deltaHistory batches, ascending toVersion
}

// deltaRec records one applied batch for incremental refresh: the version
// it produced, the distinct heads of changed arcs, and whether any group
// label moved (which invalidates sketch root distributions wholesale).
type deltaRec struct {
	toVersion     uint64
	heads         []graph.NodeID
	groupsChanged bool
}

// Registry maps names to lazily-loaded, immutable graphs. Registration
// happens at daemon startup; Get is called per request and shares one
// load among concurrent callers.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*regEntry{}}
}

// Register adds a named graph backed by a loader. source is a
// human-readable origin shown by /v1/graphs (e.g. "file:net.txt" or
// "synthetic:twoblock"). Duplicate names are rejected.
func (r *Registry) Register(name, source string, load Loader) error {
	if name == "" {
		return fmt.Errorf("server: empty graph name")
	}
	if load == nil {
		return fmt.Errorf("server: nil loader for graph %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("server: graph %q already registered", name)
	}
	r.entries[name] = &regEntry{source: source, loader: load}
	return nil
}

// RegisterFile registers a graph read from a fairtcim edge-list file on
// first use.
func (r *Registry) RegisterFile(name, path string) error {
	return r.Register(name, "file:"+path, func() (*graph.Graph, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Read(f)
	})
}

// RegisterGraph registers an already-built graph (tests, embedded
// synthetics).
func (r *Registry) RegisterGraph(name, source string, g *graph.Graph) error {
	return r.Register(name, source, func() (*graph.Graph, error) { return g, nil })
}

// Get returns the named graph, loading it on first use. Concurrent
// callers for the same graph share a single load; a failed load is
// reported to everyone waiting on it and retried by the next request.
func (r *Registry) Get(name string) (*graph.Graph, error) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("server: %w %q", ErrUnknownGraph, name)
	}
	for {
		e.mu.Lock()
		if e.g != nil {
			g := e.g
			e.mu.Unlock()
			return g, nil
		}
		if e.loading == nil {
			// Become the loader; run it without holding mu.
			ch := make(chan struct{})
			e.loading = ch
			load := e.loader
			e.mu.Unlock()
			g, err := load()
			e.mu.Lock()
			if err == nil {
				e.g = g
				e.version = 1
				// Never called again: dropping it releases whatever the
				// closure captured (RegisterGraph's version-1 snapshot).
				e.loader = nil
			}
			e.loading = nil
			e.mu.Unlock()
			close(ch)
			if err != nil {
				return nil, fmt.Errorf("server: loading graph %q: %w", name, err)
			}
			return g, nil
		}
		// Join the in-flight load, then re-check: on success e.g is set;
		// on failure the loop retries the load.
		ch := e.loading
		e.mu.Unlock()
		<-ch
	}
}

// GetVersioned returns the named graph together with its current registry
// version. The pair is read atomically: the returned graph is exactly the
// snapshot at the returned version, even if an update lands immediately
// after.
func (r *Registry) GetVersioned(name string) (*graph.Graph, uint64, error) {
	if _, err := r.Get(name); err != nil {
		return nil, 0, err
	}
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	e.mu.Lock()
	g, v := e.g, e.version
	e.mu.Unlock()
	return g, v, nil
}

// ApplyUpdate applies one delta batch to the named graph, swapping in the
// new immutable snapshot and bumping the version. expect, when non-zero,
// must match the current version or the update is rejected with
// ErrVersionConflict (optimistic concurrency for racing writers). Returns
// the new snapshot, its version, and what the batch changed.
func (r *Registry) ApplyUpdate(name string, expect uint64, d graph.Delta) (*graph.Graph, uint64, *graph.DeltaResult, error) {
	// Force the initial load outside the entry lock; an update to a graph
	// nobody has requested yet applies against its freshly-loaded state.
	if _, err := r.Get(name); err != nil {
		return nil, 0, nil, err
	}
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if expect != 0 && expect != e.version {
		return nil, 0, nil, fmt.Errorf("server: graph %q is at version %d, not %d: %w", name, e.version, expect, ErrVersionConflict)
	}
	ng, res, err := e.g.ApplyDelta(d)
	if err != nil {
		return nil, 0, nil, err
	}
	e.g = ng
	e.version++
	e.history = append(e.history, deltaRec{
		toVersion:     e.version,
		heads:         res.TouchedHeads,
		groupsChanged: res.GroupsChanged > 0,
	})
	if len(e.history) > deltaHistory {
		e.history = e.history[len(e.history)-deltaHistory:]
	}
	return ng, e.version, res, nil
}

// TouchedSince accumulates the delta history of the named graph over the
// version range (from, to]: the union of touched arc heads and whether any
// batch moved group labels. ok is false when the range is not fully
// covered by retained history (or the graph is unknown/unloaded), in which
// case the caller must rebuild cold.
func (r *Registry) TouchedSince(name string, from, to uint64) (heads []graph.NodeID, groupsChanged bool, ok bool) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil || from >= to {
		return nil, false, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.g == nil || to > e.version {
		return nil, false, false
	}
	seen := map[graph.NodeID]struct{}{}
	covered := from
	for _, rec := range e.history {
		if rec.toVersion <= from || rec.toVersion > to {
			continue
		}
		if rec.toVersion != covered+1 {
			return nil, false, false // gap: record evicted from history
		}
		covered = rec.toVersion
		groupsChanged = groupsChanged || rec.groupsChanged
		for _, h := range rec.heads {
			seen[h] = struct{}{}
		}
	}
	if covered != to {
		return nil, false, false
	}
	heads = make([]graph.NodeID, 0, len(seen))
	for h := range seen {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	return heads, groupsChanged, true
}

// Names returns all registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GraphInfo is one row of /v1/graphs. Size fields are present only once
// the graph has been loaded; introspection never forces a load.
type GraphInfo struct {
	Name       string `json:"name"`
	Source     string `json:"source"`
	Loaded     bool   `json:"loaded"`
	Version    uint64 `json:"version,omitempty"`
	Nodes      int    `json:"nodes,omitempty"`
	Edges      int    `json:"edges,omitempty"`
	Groups     int    `json:"groups,omitempty"`
	GroupSizes []int  `json:"group_sizes,omitempty"`
}

// Info snapshots every registered graph for introspection.
func (r *Registry) Info() []GraphInfo {
	names := r.Names()
	out := make([]GraphInfo, 0, len(names))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range names {
		e := r.entries[name]
		out = append(out, infoOf(name, e))
	}
	return out
}

// InfoFor snapshots a single graph; ok is false for unregistered names.
func (r *Registry) InfoFor(name string) (GraphInfo, bool) {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return GraphInfo{}, false
	}
	return infoOf(name, e), true
}

func infoOf(name string, e *regEntry) GraphInfo {
	info := GraphInfo{Name: name, Source: e.source}
	e.mu.Lock()
	if e.g != nil {
		info.Loaded = true
		info.Version = e.version
		info.Nodes = e.g.N()
		info.Edges = e.g.M()
		info.Groups = e.g.NumGroups()
		info.GroupSizes = e.g.GroupSizes()
	}
	e.mu.Unlock()
	return info
}
