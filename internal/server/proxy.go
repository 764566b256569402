package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"

	"fairtcim/internal/cascade"
	"fairtcim/internal/cluster"
	"fairtcim/internal/fairim"
)

// Peer-aware request routing. A replica that does not own a request's
// route key proxies it to the owner (so the owner's cache concentrates
// that key's sketch) with bounded failover: a transport failure marks the
// peer down, counts a failover, and moves to the next ring candidate —
// reaching self means "serve locally", which is where every request ends
// up when the whole fleet but this replica is gone. HTTP-level responses
// from the owner (409, 503, ...) pass through verbatim: an answer is an
// answer, not a reason to ask someone else.

// maxBodyBytes bounds a buffered request body. Bodies are buffered so
// they can be replayed against a failover candidate; solve and update
// bodies are small JSON, so the bound only stops abuse.
const maxBodyBytes = 64 << 20

// readBody buffers the request body for decode + proxy replay.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
		return nil, false
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "request body exceeds %d bytes", maxBodyBytes)
		return nil, false
	}
	return body, true
}

// decodeStrict unmarshals a buffered body with unknown fields rejected,
// writing the bad_request envelope on failure.
func decodeStrict(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// routeKeyFor maps a decoded request onto its cluster routing key. The
// key mirrors sampleKeyFor's normalization (RIS pins the model, forward
// MC drops τ, each engine keys on its own sampleBudget) so requests that
// would share a sketch route to the same owner — but needs no graph
// object and no registry version: replicas with skewed versions must
// still agree on who owns a request, and a router holds no graphs at all.
func routeKeyFor(graphName string, spec fairim.ProblemSpec) string {
	engine, model, tau := spec.Engine, spec.Model, spec.Tau
	if engine == fairim.EngineRIS {
		model = cascade.IC
	} else {
		tau = 0
	}
	var eps, delta uint64
	if acc := spec.Sampling.Accuracy; acc != nil {
		eps = math.Float64bits(acc.Epsilon)
		delta = math.Float64bits(acc.Delta)
	}
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d|%d",
		graphName, int(engine), int(model), tau,
		sampleBudget(spec), spec.Seed, eps, delta)
}

func proxyHeader() http.Header {
	return http.Header{proxiedHeader: []string{"1"}}
}

// routeCandidates decides whether a request must leave this replica:
// nil means serve locally (no cluster, already proxied once, or this
// replica owns the key); otherwise the full ring-failover candidate list.
func (s *Server) routeCandidates(r *http.Request, key string) []string {
	if s.cluster == nil || r.Header.Get(proxiedHeader) != "" {
		return nil
	}
	cands := s.cluster.c.Candidates(key)
	if len(cands) == 0 || cands[0] == s.cluster.self {
		return nil
	}
	return cands
}

// proxy walks candidates in ring order: a live peer gets the request
// replayed and its response streamed back verbatim; a transport failure
// counts a failover and moves on; reaching self returns false — the
// caller serves locally. observe, when non-nil, sees successful responses
// buffered (peer, status, body) before they are written — the job-submit
// path uses it to remember which peer owns the new job. Returns true once
// a response has been written. Shared by the peer-aware replica (whose
// self sits on the ring) and the standalone router (whose self is empty
// and therefore never matches — exhausting the list is its 502).
func (cs *clusterState) proxy(w http.ResponseWriter, r *http.Request, cands []string, path string, body []byte, observe func(peer string, status int, data []byte)) bool {
	for _, cand := range cands {
		if cand == cs.self {
			return false
		}
		resp, err := cs.c.Forward(r.Context(), cand, r.Method, path, body, proxyHeader())
		if err != nil {
			if r.Context().Err() != nil {
				// The client is gone; nobody is owed a response.
				return true
			}
			cs.c.Failovers.Add(1)
			continue
		}
		cs.c.Proxied.Add(1)
		if observe == nil {
			cluster.CopyResponse(w, resp)
			return true
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		resp.Body.Close()
		if rerr == nil {
			observe(cand, resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(data)
		return true
	}
	// Only a ring without self (a pure router) can exhaust its candidates.
	writeError(w, http.StatusBadGateway, CodePeerUnreachable, "no reachable replica owns this request")
	return true
}

func (s *Server) proxyWithFailover(w http.ResponseWriter, r *http.Request, cands []string, path string, body []byte, observe func(peer string, status int, data []byte)) bool {
	return s.cluster.proxy(w, r, cands, path, body, observe)
}

// batchRouteKey returns the common route key of a batch when every
// request decodes and routes identically — the only case a batch is
// proxied as a unit. Mixed batches are served locally: correctness never
// depends on routing, only cache affinity does.
func batchRouteKey(reqs []SolveRequest) (string, bool) {
	key := ""
	for i, sub := range reqs {
		spec, err := sub.toSpec()
		if err != nil {
			return "", false
		}
		k := routeKeyFor(sub.Graph, spec)
		if i == 0 {
			key = k
		} else if k != key {
			return "", false
		}
	}
	return key, key != ""
}

// forwardJobRequest forwards a job GET/DELETE/trace for an id this
// replica does not hold but remembers proxying to a peer. No failover:
// the job state lives only on that peer, so an unreachable owner is a
// peer_unreachable error, not someone else's answer.
func (s *Server) forwardJobRequest(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.cluster == nil || r.Header.Get(proxiedHeader) != "" {
		return false
	}
	return s.cluster.forwardJob(w, r, id)
}

// forwardJob is the shared forwarding core behind forwardJobRequest and
// the router's job handlers: look up the remembered owner and relay.
func (cs *clusterState) forwardJob(w http.ResponseWriter, r *http.Request, id string) bool {
	peer, ok := cs.jobRoute(id)
	if !ok {
		return false
	}
	resp, err := cs.c.Forward(r.Context(), peer, r.Method, r.URL.Path, nil, proxyHeader())
	if err != nil {
		if r.Context().Err() != nil {
			return true
		}
		cs.c.Failovers.Add(1)
		writeError(w, http.StatusBadGateway, CodePeerUnreachable, "job %q lives on an unreachable replica", id)
		return true
	}
	cs.c.Proxied.Add(1)
	cluster.CopyResponse(w, resp)
	return true
}

// PeerUpdateResult is one peer's outcome of a graph-update fanout. A
// converged peer reports its new version (equal to the origin's when the
// fleet was in sync); a failed one carries the peer's own error envelope
// code — version_conflict marks a replica whose graph had drifted.
type PeerUpdateResult struct {
	Peer    string `json:"peer"`
	Version uint64 `json:"version,omitempty"`
	Code    string `json:"code,omitempty"`
	Error   string `json:"error,omitempty"`
}

// fanoutUpdate forwards an applied delta batch to every configured peer
// with expect_version pinned to the version this replica just moved
// from, so each peer either converges to the same new version or
// surfaces version_conflict — never silently diverges. Down peers are
// attempted too (their error rows are the operator's signal); the fanout
// header stops receivers from re-fanning.
func (s *Server) fanoutUpdate(ctx context.Context, name string, expect uint64, req GraphUpdateRequest) []PeerUpdateResult {
	peers := s.cluster.c.Peers()
	if len(peers) == 0 {
		return nil
	}
	s.cluster.c.UpdateFanouts.Add(1)
	req.ExpectVersion = expect
	body, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	path := "/v1/graphs/" + url.PathEscape(name) + "/updates"
	out := make([]PeerUpdateResult, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			out[i] = s.pushUpdate(ctx, peer, path, body)
		}(i, peer)
	}
	wg.Wait()
	return out
}

// pushUpdate delivers one fanned-out batch to one peer and decodes the
// outcome for the origin's response.
func (s *Server) pushUpdate(ctx context.Context, peer, path string, body []byte) PeerUpdateResult {
	res := PeerUpdateResult{Peer: peer}
	hdr := proxyHeader()
	hdr.Set(fanoutHeader, "1")
	resp, err := s.cluster.c.Forward(ctx, peer, http.MethodPost, path, body, hdr)
	if err != nil {
		res.Code = CodePeerUnreachable
		res.Error = err.Error()
		return res
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode == http.StatusOK {
		var ur GraphUpdateResponse
		if json.Unmarshal(data, &ur) == nil {
			res.Version = ur.Version
		}
		return res
	}
	var env errorResponse
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		res.Code, res.Error = env.Error.Code, env.Error.Message
	} else {
		res.Code, res.Error = CodeInternal, fmt.Sprintf("HTTP %d", resp.StatusCode)
	}
	return res
}
