package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"fairtcim/internal/cascade"
	"fairtcim/internal/cluster"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/persist"
)

// Sharded serving: when the daemon runs with peers, every replica builds
// the same consistent-hash ring over the fleet and owns a slice of the
// (graph, spec-key) space. A request landing on a non-owner is proxied to
// the owner (proxy.go); a cache miss for a key this replica owns first
// asks the peers for the warm frame before sampling (fetchSample below);
// and GET /v1/sketches/{key} is the transfer endpoint the fetch side
// talks to — it streams the exact internal/persist frame a state-dir
// save would write, so the wire format and the disk format are one.

// Cross-replica request headers. A proxied request is always served
// locally by the receiver (the loop guard that makes mismatched member
// URL spellings degrade to one extra hop instead of a ping-pong loop); a
// fanned-out graph update is applied locally and never re-fanned.
const (
	proxiedHeader = "X-Fairtcim-Proxied"
	fanoutHeader  = "X-Fairtcim-Fanout"
)

// wireKey encodes a sampleKey as its cluster-wide sketch name: the graph
// name (query-escaped, with '~' escaped by hand since it is both our
// separator and a character QueryEscape leaves alone) followed by every
// other key field in a fixed order. Two replicas holding the same graph
// under the same name derive the same wire key for the same request, so
// a fetch asks for exactly the frame the peer's own cache is keyed by.
func (k sampleKey) wireKey() string {
	name := strings.ReplaceAll(url.QueryEscape(k.graph), "~", "%7E")
	evalOnly := 0
	if k.evalOnly {
		evalOnly = 1
	}
	return fmt.Sprintf("%s~%d~%d~%d~%d~%d~%d~%d~%d~%d~%d",
		name, k.version, int(k.engine), int(k.model), k.tau, k.budget, k.seed,
		k.epsBits, k.deltaBits, k.sizingK, evalOnly)
}

// parseWireKey inverts wireKey. Anything malformed is a client error on
// the transfer endpoint — a well-behaved replica never sends one.
func parseWireKey(s string) (sampleKey, error) {
	var k sampleKey
	parts := strings.Split(s, "~")
	if len(parts) != 11 {
		return k, fmt.Errorf("sketch key has %d fields, want 11", len(parts))
	}
	name, err := url.QueryUnescape(parts[0])
	if err != nil {
		return k, fmt.Errorf("bad graph name: %v", err)
	}
	k.graph = name
	if k.version, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return k, fmt.Errorf("bad version: %v", err)
	}
	engine, err := strconv.Atoi(parts[2])
	if err != nil {
		return k, fmt.Errorf("bad engine: %v", err)
	}
	k.engine = fairim.Engine(engine)
	if k.engine != fairim.EngineForwardMC && k.engine != fairim.EngineRIS {
		return k, fmt.Errorf("unknown engine %d", engine)
	}
	model, err := strconv.Atoi(parts[3])
	if err != nil {
		return k, fmt.Errorf("bad model: %v", err)
	}
	k.model = cascade.Model(model)
	if k.model != cascade.IC && k.model != cascade.LT {
		return k, fmt.Errorf("unknown model %d", model)
	}
	tau, err := strconv.ParseInt(parts[4], 10, 32)
	if err != nil {
		return k, fmt.Errorf("bad tau: %v", err)
	}
	k.tau = int32(tau)
	if k.budget, err = strconv.Atoi(parts[5]); err != nil {
		return k, fmt.Errorf("bad budget: %v", err)
	}
	if k.seed, err = strconv.ParseInt(parts[6], 10, 64); err != nil {
		return k, fmt.Errorf("bad seed: %v", err)
	}
	if k.epsBits, err = strconv.ParseUint(parts[7], 10, 64); err != nil {
		return k, fmt.Errorf("bad epsilon bits: %v", err)
	}
	if k.deltaBits, err = strconv.ParseUint(parts[8], 10, 64); err != nil {
		return k, fmt.Errorf("bad delta bits: %v", err)
	}
	if k.sizingK, err = strconv.Atoi(parts[9]); err != nil {
		return k, fmt.Errorf("bad sizing k: %v", err)
	}
	switch parts[10] {
	case "0":
	case "1":
		k.evalOnly = true
	default:
		return k, fmt.Errorf("bad eval-only flag %q", parts[10])
	}
	return k, nil
}

// jobRouteCap bounds the proxied-job route memory; beyond it the oldest
// routes are forgotten (their jobs are long finished or findable by
// asking the owner directly).
const jobRouteCap = 4096

// clusterState ties the cluster membership into the serving layer: the
// ring/health/counter core from internal/cluster, a fingerprint memo for
// framing sketches, and the memory of which peer owns which proxied job.
type clusterState struct {
	c    *cluster.Cluster
	self string
	fp   *fpMemo

	routeMu   sync.Mutex
	jobRoutes map[string]string
	jobOrder  []string
}

func newClusterState(c *cluster.Cluster, fp *fpMemo) *clusterState {
	return &clusterState{c: c, self: c.Self(), fp: fp, jobRoutes: map[string]string{}}
}

// rememberJob records that a proxied job submission landed on peer, so
// later GET/DELETE/trace calls for that id at this replica forward there.
func (cs *clusterState) rememberJob(id, peer string) {
	cs.routeMu.Lock()
	if _, dup := cs.jobRoutes[id]; !dup {
		cs.jobOrder = append(cs.jobOrder, id)
		if len(cs.jobOrder) > jobRouteCap {
			delete(cs.jobRoutes, cs.jobOrder[0])
			cs.jobOrder = cs.jobOrder[1:]
		}
	}
	cs.jobRoutes[id] = peer
	cs.routeMu.Unlock()
}

func (cs *clusterState) jobRoute(id string) (string, bool) {
	cs.routeMu.Lock()
	peer, ok := cs.jobRoutes[id]
	cs.routeMu.Unlock()
	return peer, ok
}

// fetchSample implements the cache's peerSource hook: on a memory+disk
// miss, ask the fleet for the warm frame before sampling. Peers are tried
// in ring order from the key (the owner first — routing concentrates the
// key's traffic there, so that is where the sketch is warmest). Every
// received frame is validated exactly like a state file — persist frame
// checks against this replica's own graph fingerprint, then the decoded
// artifact against the key's parameters — and anything unusable bumps
// peer_fetch_errors and degrades to the next peer, then to a cold build.
// A transferred sketch can make a request faster, never wrong.
func (cs *clusterState) fetchSample(ctx context.Context, key sampleKey, g *graph.Graph) *sample {
	wire := key.wireKey()
	want := frameMeta(key, cs.fp.fingerprint(key, g))
	for _, peer := range cs.c.FetchOrder(wire) {
		if ctx.Err() != nil {
			return nil
		}
		data, err := cs.c.FetchSketch(ctx, peer, wire)
		if err != nil {
			if err != cluster.ErrNotFound && ctx.Err() == nil {
				cs.c.PeerFetchErrors.Add(1)
			}
			continue
		}
		payload, err := persist.Decode(data, want)
		if err != nil {
			cs.c.PeerFetchErrors.Add(1)
			continue
		}
		smp, err := decodeSamplePayload(key, g, payload)
		if err != nil {
			cs.c.PeerFetchErrors.Add(1)
			continue
		}
		cs.c.PeerFetches.Add(1)
		cs.c.PeerFetchBytes.Add(int64(len(data)))
		return smp
	}
	return nil
}

// handleSketchGet is GET /v1/sketches/{key}: stream the persist frame
// for a warm sample. Sources, in order: a ready cache entry (framed from
// memory — against the snapshot the sample was actually built from, so a
// version-keyed entry stays servable after the registry moved on), then
// the raw state-dir file verbatim. The endpoint never builds anything: a
// replica that lacks the frame answers 404 and the fetcher moves on.
func (s *Server) handleSketchGet(w http.ResponseWriter, r *http.Request) {
	key, err := parseWireKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad sketch key: %v", err)
		return
	}
	if smp := s.cache.peek(key); smp != nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		_ = persist.EncodeTo(w, frameMeta(key, s.fpm.fingerprint(key, smp.g)), smp.payload())
		return
	}
	if s.cache.disk != nil {
		if raw, ok := s.cache.disk.rawFrame(key); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(raw)
			return
		}
	}
	writeError(w, http.StatusNotFound, CodeSketchNotFound, "no warm sketch for this key")
}

// RunClusterProbes drives periodic peer health probes until ctx ends,
// ejecting unreachable replicas from routing and readmitting them when
// they answer /healthz again. No-op without peers; the daemon runs it on
// its own goroutine for the process lifetime.
func (s *Server) RunClusterProbes(ctx context.Context) {
	if s.cluster == nil {
		return
	}
	s.cluster.c.Monitor().Run(ctx)
}

// ClusterStats snapshots the cluster counters; nil without peers.
func (s *Server) ClusterStats() *cluster.Stats {
	if s.cluster == nil {
		return nil
	}
	st := s.cluster.c.Stats()
	return &st
}
