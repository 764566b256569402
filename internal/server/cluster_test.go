package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fairtcim/internal/persist"
)

// startFleet starts n replicas that all know each other (each one's
// Peers list is the other n-1), with real listeners bound before any
// server starts so every Config carries final URLs. Returns the servers
// and their base URLs, index-aligned.
func startFleet(t *testing.T, n int, mod func(i int, cfg *Config)) ([]*Server, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{Registry: testRegistry(t), Peers: peers, SelfURL: urls[i]}
		if mod != nil {
			mod(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = s
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(ts.Close)
	}
	return srvs, urls
}

// postLocal posts body to url+path with the proxied header set, pinning
// the request to the receiving replica regardless of ring ownership —
// the deterministic way to warm or probe a specific replica in tests.
func postLocal(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(proxiedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const clusterSelectBody = `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50}`

func decodeSolve(t *testing.T, data []byte) SolveResponse {
	t.Helper()
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return out
}

func TestWireKeyRoundTrip(t *testing.T) {
	keys := []sampleKey{
		{graph: "twostars", version: 3, engine: 1, model: 0, tau: 5, budget: 10, seed: -7, epsBits: 123, deltaBits: 456, sizingK: 4},
		{graph: "a~b/c d%e", version: 1, engine: 0, model: 1, seed: 42, evalOnly: true},
		{graph: "gráph~~name", version: 0, engine: 1},
	}
	for _, k := range keys {
		got, err := parseWireKey(k.wireKey())
		if err != nil {
			t.Fatalf("parse(%q): %v", k.wireKey(), err)
		}
		if got != k {
			t.Fatalf("round trip: got %+v, want %+v", got, k)
		}
	}
	for _, bad := range []string{"", "a~b", "g~x~1~0~0~0~0~0~0~0~0", "g~1~9~0~0~0~0~0~0~0~0", "g~1~1~0~0~0~0~0~0~0~2"} {
		if _, err := parseWireKey(bad); err == nil {
			t.Fatalf("parseWireKey(%q) accepted", bad)
		}
	}
}

// FuzzParseWireKey throws arbitrary strings at the transfer endpoint's
// key parser: it must never panic, and a key it accepts must survive a
// wireKey round trip unchanged — so a replica serves exactly the frame
// the key names.
func FuzzParseWireKey(f *testing.F) {
	for _, k := range []sampleKey{
		{graph: "twostars", version: 3, engine: 1, model: 0, tau: 5, budget: 10, seed: -7, epsBits: 123, deltaBits: 456, sizingK: 4},
		{graph: "a~b/c d%e", version: 1, engine: 0, model: 1, seed: 42, evalOnly: true},
	} {
		f.Add(k.wireKey())
	}
	for _, bad := range []string{"", "a~b", "g~1~9~0~0~0~0~0~0~0~0", "g~+1~1~0~-0~0~0~0~0~0~1", "%zz~1~1~0~0~0~0~0~0~0~0"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := parseWireKey(s)
		if err != nil {
			return
		}
		back, err := parseWireKey(k.wireKey())
		if err != nil {
			t.Fatalf("accepted %q, but its wire key %q is rejected: %v", s, k.wireKey(), err)
		}
		if back != k {
			t.Fatalf("accepted %q as %+v, round trip gives %+v", s, k, back)
		}
	})
}

// TestSketchStreamParityWithDisk pins the transfer endpoint to the disk
// format: the bytes streamed by GET /v1/sketches/{key} decode under the
// same frame checks as the state file, and the persisted file served
// verbatim is identical to a fresh in-memory framing of the same sample.
func TestSketchStreamParityWithDisk(t *testing.T) {
	s, ts := newTestServer(t, Config{StateDir: t.TempDir()})
	resp, body := postJSON(t, ts.URL+"/v1/select", clusterSelectBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, body)
	}
	var req SolveRequest
	if err := json.Unmarshal([]byte(clusterSelectBody), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	g, version, err := s.reg.GetVersioned("twostars")
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKeyFor("twostars", version, g, spec, false)

	fetch := func() []byte {
		res, err := http.Get(ts.URL + "/v1/sketches/" + key.wireKey())
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("sketch fetch: %d %s", res.StatusCode, data)
		}
		return data
	}

	// While the entry is warm the frame is encoded from memory.
	fromMemory := fetch()
	s.WaitFlushes()
	raw, ok := s.cache.disk.rawFrame(key)
	if !ok {
		t.Fatal("no persisted frame after WaitFlushes")
	}
	if !bytes.Equal(fromMemory, raw) {
		t.Fatalf("streamed frame (%d bytes) != persisted frame (%d bytes)", len(fromMemory), len(raw))
	}
	// Dropping the memory entry forces the raw-file path; still identical.
	s.cache.mu.Lock()
	s.cache.entries = map[sampleKey]*cacheEntry{}
	s.cache.lru.Init()
	s.cache.mu.Unlock()
	if fromDisk := fetch(); !bytes.Equal(fromDisk, raw) {
		t.Fatal("raw-file fetch differs from persisted frame")
	}

	if res, err := http.Get(ts.URL + "/v1/sketches/not-a-key"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad key: status %d", res.StatusCode)
		}
	}
}

// TestPeerFetchColdReplica is the in-process version of the CI smoke: a
// cold replica with no shared state dir answers its first repeat query by
// fetching the owner's frame, building nothing.
func TestPeerFetchColdReplica(t *testing.T) {
	srvs, urls := startFleet(t, 2, nil)
	resp, warmBody := postLocal(t, urls[0], "/v1/select", clusterSelectBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm select: %d %s", resp.StatusCode, warmBody)
	}
	resp, coldBody := postLocal(t, urls[1], "/v1/select", clusterSelectBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold select: %d %s", resp.StatusCode, coldBody)
	}
	warm, cold := decodeSolve(t, warmBody), decodeSolve(t, coldBody)
	if fmt.Sprint(warm.Seeds) != fmt.Sprint(cold.Seeds) || warm.Total != cold.Total {
		t.Fatalf("peer-fetched answer differs: %v/%v vs %v/%v", warm.Seeds, warm.Total, cold.Seeds, cold.Total)
	}
	if !cold.CacheHit {
		t.Fatal("peer-fetched sample should report cache_hit=true")
	}
	cs := srvs[1].ClusterStats()
	if cs.PeerFetches != 1 || cs.PeerFetchBytes <= 0 {
		t.Fatalf("cold replica: peer_fetches=%d bytes=%d, want 1/>0", cs.PeerFetches, cs.PeerFetchBytes)
	}
	if builds := srvs[1].CacheStats().Builds; builds != 0 {
		t.Fatalf("cold replica built %d samples, want 0", builds)
	}
	// The fetched sample is persisted like a local build would be — but
	// these replicas run memory-only, so just confirm the warm replica
	// didn't double count.
	if b := srvs[0].CacheStats().Builds; b != 1 {
		t.Fatalf("warm replica builds=%d, want 1", b)
	}
}

// skewedFrames returns well-formed frames of the canonical test request's
// sketch — the right kind, the right graph fingerprint, a genuine payload
// — stamped one codec version above and one below the reader's. A control
// decode at the reader's own version proves the version is their only
// fault.
func skewedFrames(t *testing.T) map[string][]byte {
	t.Helper()
	s, _ := newTestServer(t, Config{})
	var req SolveRequest
	if err := json.Unmarshal([]byte(clusterSelectBody), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	g, version, err := s.reg.GetVersioned("twostars")
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKeyFor("twostars", version, g, spec, false)
	smp, _, _, err := s.cache.SampleFor(context.Background(), key, g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := frameMeta(key, persist.GraphFingerprint(g))
	frame := func(version uint32) []byte {
		m := meta
		m.Version = version
		var buf bytes.Buffer
		if err := persist.EncodeTo(&buf, m, smp.payload()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	payload, err := persist.Decode(frame(meta.Version), meta)
	if err == nil {
		_, err = decodeSamplePayload(key, g, payload)
	}
	if err != nil {
		t.Fatalf("control frame at the reader's version rejected: %v", err)
	}
	return map[string][]byte{
		"version skew +1": frame(meta.Version + 1),
		"version skew -1": frame(meta.Version - 1),
	}
}

// TestPeerFetchCorruptFrame: a peer streaming garbage, a truncated frame
// or a well-formed frame of another codec version bumps
// peer_fetch_errors and degrades to a local cold build — the request
// still succeeds with a correct answer.
func TestPeerFetchCorruptFrame(t *testing.T) {
	inputs := map[string][]byte{
		"garbage":   []byte("definitely not a persist frame"),
		"truncated": []byte("FTCWARM1\x02"),
		"empty":     nil,
	}
	for name, frame := range skewedFrames(t) {
		inputs[name] = frame
	}
	for name, frame := range inputs {
		t.Run(name, func(t *testing.T) {
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" {
					w.WriteHeader(http.StatusOK)
					return
				}
				w.Header().Set("Content-Type", "application/octet-stream")
				_, _ = w.Write(frame)
			}))
			defer fake.Close()
			s, ts := newTestServer(t, Config{Peers: []string{fake.URL}, SelfURL: "http://self.invalid"})
			resp, body := postLocal(t, ts.URL, "/v1/select", clusterSelectBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("select: %d %s", resp.StatusCode, body)
			}
			out := decodeSolve(t, body)
			if len(out.Seeds) != 2 {
				t.Fatalf("got %d seeds, want 2", len(out.Seeds))
			}
			cs := s.ClusterStats()
			if cs.PeerFetchErrors < 1 {
				t.Fatalf("peer_fetch_errors=%d, want >=1", cs.PeerFetchErrors)
			}
			if cs.PeerFetches != 0 {
				t.Fatalf("peer_fetches=%d, want 0", cs.PeerFetches)
			}
			if b := s.CacheStats().Builds; b != 1 {
				t.Fatalf("builds=%d, want 1 (cold build fallback)", b)
			}
		})
	}
}

// TestConcurrentPeerFetchSingleflight races many identical queries at a
// cold replica whose peer holds the frame: singleflight must collapse
// them onto one peer fetch (zero builds), every response identical. Run
// under -race this also exercises the fetch/build interleavings.
func TestConcurrentPeerFetchSingleflight(t *testing.T) {
	srvs, urls := startFleet(t, 2, nil)
	if resp, body := postLocal(t, urls[0], "/v1/select", clusterSelectBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm select: %d %s", resp.StatusCode, body)
	}
	const racers = 8
	seeds := make([]string, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, urls[1]+"/v1/select", strings.NewReader(clusterSelectBody))
			if err != nil {
				seeds[i] = err.Error()
				return
			}
			req.Header.Set(proxiedHeader, "1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				seeds[i] = err.Error()
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var out SolveResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &out) != nil {
				seeds[i] = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, data)
				return
			}
			seeds[i] = fmt.Sprint(out.Seeds)
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if seeds[i] != seeds[0] {
			t.Fatalf("racer %d answer %q != racer 0 %q", i, seeds[i], seeds[0])
		}
	}
	if b := srvs[1].CacheStats().Builds; b != 0 {
		t.Fatalf("cold replica builds=%d, want 0", b)
	}
	if pf := srvs[1].ClusterStats().PeerFetches; pf != 1 {
		t.Fatalf("peer_fetches=%d, want 1 (singleflight)", pf)
	}
}

// ownerOf returns which fleet index owns the canonical test request.
func ownerOf(t *testing.T, srvs []*Server, urls []string) (owner, other int) {
	t.Helper()
	var req SolveRequest
	if err := json.Unmarshal([]byte(clusterSelectBody), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := req.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	own := srvs[0].cluster.c.Owner(routeKeyFor(req.Graph, spec))
	for i, u := range urls {
		if u == own {
			return i, 1 - i
		}
	}
	t.Fatalf("owner %q not in fleet %v", own, urls)
	return 0, 0
}

// TestRouteKeyMatchesSampleKey: two explicitly budgeted requests route to
// the same owner exactly when they share a sketch. The other engine's
// budget (samples for RIS, ris_per_group for forward MC) and a forward-MC
// τ move neither key; a pool size, a world count, a seed, a model or an
// engine moves both.
func TestRouteKeyMatchesSampleKey(t *testing.T) {
	g, version, err := testRegistry(t).GetVersioned("twostars")
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"engine":"ris","tau":3,"ris_per_group":4000,"samples":100}`,
		`{"engine":"ris","tau":3,"ris_per_group":4000,"samples":300}`,
		`{"engine":"ris","tau":3,"ris_per_group":1000}`,
		`{"engine":"ris","tau":3,"samples":50}`,
		`{"engine":"ris","tau":3,"ris_per_group":2000}`,
		`{"engine":"ris","tau":4,"ris_per_group":2000}`,
		`{"engine":"ris","tau":3,"ris_per_group":2000,"seed":2}`,
		`{"engine":"forward-mc","tau":3,"samples":200}`,
		`{"engine":"forward-mc","tau":3,"samples":200,"ris_per_group":999}`,
		`{"engine":"forward-mc","tau":9,"samples":200}`,
		`{"engine":"forward-mc","tau":3,"samples":300}`,
		`{"engine":"forward-mc","tau":3,"samples":300,"seed":2}`,
		`{"engine":"forward-mc","tau":3,"samples":300,"model":"lt"}`,
		`{"engine":"forward-mc","tau":3,"samples":50}`,
	}
	type keys struct {
		sample sampleKey
		route  string
	}
	all := make([]keys, len(bodies))
	for i, body := range bodies {
		var req SolveRequest
		if err := json.Unmarshal([]byte(`{"graph":"twostars","problem":"p1","budget":2,`+body[1:]), &req); err != nil {
			t.Fatal(err)
		}
		spec, err := req.toSpec()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		all[i] = keys{sampleKeyFor(req.Graph, version, g, spec, false), routeKeyFor(req.Graph, spec)}
	}
	shared := 0
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			sameSketch := all[i].sample == all[j].sample
			if sameRoute := all[i].route == all[j].route; sameSketch != sameRoute {
				t.Errorf("%s vs %s: same sketch %v, same route %v", bodies[i], bodies[j], sameSketch, sameRoute)
			}
			if sameSketch {
				shared++
			}
		}
	}
	// Pairs 0-1, 2-3 (samples 50 materializes 20·50 RR sets), 7-8 and 7-9
	// share a sketch — and 8-9 by transitivity.
	if shared != 5 {
		t.Fatalf("%d pairs share a sketch, want 5", shared)
	}
}

// TestProxyToOwner: a request landing on the non-owner is proxied to the
// owner, whose cache hosts the build; the non-owner builds nothing.
func TestProxyToOwner(t *testing.T) {
	srvs, urls := startFleet(t, 2, nil)
	owner, other := ownerOf(t, srvs, urls)
	resp, body := postJSON(t, urls[other]+"/v1/select", clusterSelectBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select at non-owner: %d %s", resp.StatusCode, body)
	}
	if len(decodeSolve(t, body).Seeds) != 2 {
		t.Fatalf("bad answer: %s", body)
	}
	if p := srvs[other].ClusterStats().Proxied; p != 1 {
		t.Fatalf("non-owner proxied=%d, want 1", p)
	}
	if b := srvs[other].CacheStats().Builds; b != 0 {
		t.Fatalf("non-owner builds=%d, want 0", b)
	}
	if b := srvs[owner].CacheStats().Builds; b != 1 {
		t.Fatalf("owner builds=%d, want 1", b)
	}
	// Batch requests with one uniform route key take the same proxy path.
	batch := fmt.Sprintf(`{"requests":[%s,%s]}`, clusterSelectBody, clusterSelectBody)
	resp, body = postJSON(t, urls[other]+"/v1/select/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch at non-owner: %d %s", resp.StatusCode, body)
	}
	if p := srvs[other].ClusterStats().Proxied; p != 2 {
		t.Fatalf("non-owner proxied=%d after batch, want 2", p)
	}
}

// TestFailoverAfterOwnerDeath builds the fleet by hand so the owner's
// listener can be closed mid-test: the surviving replica must fail over
// and answer locally with a cold build.
func TestFailoverAfterOwnerDeath(t *testing.T) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*Server, 2)
	tss := make([]*httptest.Server, 2)
	for i := range srvs {
		s, err := New(Config{Registry: testRegistry(t), Peers: []string{urls[1-i]}, SelfURL: urls[i]})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = s
		tss[i] = &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: s.Handler()}}
		tss[i].Start()
		t.Cleanup(tss[i].Close)
	}

	owner, other := ownerOf(t, srvs, urls)
	tss[owner].Close() // the owner is gone

	resp, body := postJSON(t, urls[other]+"/v1/select", clusterSelectBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select after owner death: %d %s", resp.StatusCode, body)
	}
	if len(decodeSolve(t, body).Seeds) != 2 {
		t.Fatalf("bad answer: %s", body)
	}
	cs := srvs[other].ClusterStats()
	if cs.Failovers < 1 {
		t.Fatalf("failovers=%d, want >=1", cs.Failovers)
	}
	if b := srvs[other].CacheStats().Builds; b != 1 {
		t.Fatalf("survivor builds=%d, want 1 (local cold build)", b)
	}
}

// TestUpdateFanout: an update posted to one replica converges the fleet;
// a drifted peer surfaces version_conflict in the origin's response.
func TestUpdateFanout(t *testing.T) {
	srvs, urls := startFleet(t, 2, nil)
	update := `{"edges":[{"from":0,"to":5,"p":0.9}]}`

	resp, body := postJSON(t, urls[0]+"/v1/graphs/twostars/updates", update)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	var out GraphUpdateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Peers) != 1 {
		t.Fatalf("fanout rows: %d, want 1: %s", len(out.Peers), body)
	}
	if out.Peers[0].Code != "" || out.Peers[0].Version != out.Version {
		t.Fatalf("peer did not converge: %+v (origin version %d)", out.Peers[0], out.Version)
	}
	if _, v, err := srvs[1].reg.GetVersioned("twostars"); err != nil || v != out.Version {
		t.Fatalf("peer registry at version %d (err %v), want %d", v, err, out.Version)
	}
	if f := srvs[0].ClusterStats().UpdateFanouts; f != 1 {
		t.Fatalf("update_fanouts=%d, want 1", f)
	}

	// Drift the peer: apply a batch only there (fanout header suppresses
	// its own re-fanout), then update at the origin again — the fanout row
	// must carry version_conflict.
	req, err := http.NewRequest(http.MethodPost, urls[1]+"/v1/graphs/twostars/updates", strings.NewReader(update))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(fanoutHeader, "1")
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drift update: %d", dresp.StatusCode)
	}

	resp, body = postJSON(t, urls[0]+"/v1/graphs/twostars/updates", update)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drift update: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Peers) != 1 || out.Peers[0].Code != CodeVersionConflict {
		t.Fatalf("drifted peer row = %+v, want version_conflict", out.Peers)
	}
}

// TestJobForwarding: a job submitted at the non-owner is proxied to the
// owner and remembered, so status polls and cancels at the entry replica
// forward transparently.
func TestJobForwarding(t *testing.T) {
	srvs, urls := startFleet(t, 2, nil)
	_, other := ownerOf(t, srvs, urls)
	resp, body := postJSON(t, urls[other]+"/v1/jobs", clusterSelectBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := srvs[other].cluster.jobRoute(st.ID); !ok {
		t.Fatalf("job %s not remembered at the proxying replica", st.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := http.Get(urls[other] + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", res.StatusCode, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == JobDone {
			if st.Result == nil || len(st.Result.Seeds) != 2 {
				t.Fatalf("done without result: %s", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The job never existed locally at the entry replica.
	if _, ok := srvs[other].jobs.get(st.ID); ok {
		t.Fatal("job ran at the non-owner")
	}
}
