package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fairtcim/internal/estimator"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

// testRegistry registers the deterministic two-star fixture and a small
// two-block SBM.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.RegisterGraph("twostars", "synthetic:twostars", generate.TwoStars()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("twoblock", "synthetic:twoblock", func() (*graph.Graph, error) {
		cfg := generate.DefaultTwoBlock(1)
		cfg.N = 200
		cfg.PHom, cfg.PHet = 0.06, 0.003
		return generate.TwoBlock(cfg)
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testRegistry(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StateDir != "" {
		// Runs after ts.Close and before the state dir's TempDir cleanup,
		// so no write-behind save races the dir's removal.
		t.Cleanup(s.WaitFlushes)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSelectTwoStars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/select",
		`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if len(out.Seeds) != 2 {
		t.Fatalf("got %d seeds, want 2: %s", len(out.Seeds), body)
	}
	// The deterministic fixture forces the two hubs.
	if out.Seeds[0] != 0 || out.Seeds[1] != 11 {
		t.Fatalf("seeds = %v, want [0 11]", out.Seeds)
	}
	if out.Problem != "P4" || out.Engine != "ris" || out.CacheHit {
		t.Fatalf("unexpected metadata: %s", body)
	}
	if out.Total <= 0 || out.Disparity < 0 {
		t.Fatalf("implausible utilities: %s", body)
	}
}

func TestSelectRepeatHitsCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"graph":"twostars","problem":"p1","budget":1,"tau":3,"engine":"ris","samples":50}`
	resp, body := postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatalf("second identical request missed the cache: %s", body)
	}
	st := s.CacheStats()
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 build and 1 hit", st)
	}
}

// TestForwardMCSharesWorldsAcrossTau pins the τ-free forward-MC cache
// key: live-edge worlds are deadline-independent, so a τ sweep reuses one
// world set instead of rebuilding per deadline.
func TestForwardMCSharesWorldsAcrossTau(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i, tau := range []int32{5, 10, 20} {
		body := fmt.Sprintf(`{"graph":"twostars","problem":"p1","budget":1,"tau":%d,"samples":40}`, tau)
		resp, out := postJSON(t, ts.URL+"/v1/select", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tau=%d: status %d: %s", tau, resp.StatusCode, out)
		}
		var sel SolveResponse
		if err := json.Unmarshal(out, &sel); err != nil {
			t.Fatal(err)
		}
		if wantHit := i > 0; sel.CacheHit != wantHit {
			t.Fatalf("tau=%d: cache_hit=%v, want %v", tau, sel.CacheHit, wantHit)
		}
	}
	if st := s.CacheStats(); st.Builds != 1 {
		t.Fatalf("τ sweep built %d world sets, want 1 (%+v)", st.Builds, st)
	}
	// RIS sketches are τ-bound, so changing τ there does rebuild.
	for _, tau := range []int32{2, 3} {
		body := fmt.Sprintf(`{"graph":"twostars","problem":"p1","budget":1,"tau":%d,"engine":"ris","samples":40}`, tau)
		resp, out := postJSON(t, ts.URL+"/v1/select", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ris tau=%d: status %d: %s", tau, resp.StatusCode, out)
		}
	}
	if st := s.CacheStats(); st.Builds != 3 {
		t.Fatalf("expected 2 RIS builds on top of 1 world set, got %d total (%+v)", st.Builds, st)
	}
}

func TestSelectErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown graph", `{"graph":"nope"}`, http.StatusNotFound},
		{"unknown engine", `{"graph":"twostars","engine":"quantum"}`, http.StatusBadRequest},
		{"unknown problem", `{"graph":"twostars","problem":"p9"}`, http.StatusBadRequest},
		{"unknown model", `{"graph":"twostars","model":"sir"}`, http.StatusBadRequest},
		{"missing graph", `{"problem":"p1"}`, http.StatusBadRequest},
		{"bad json", `{"graph":`, http.StatusBadRequest},
		{"unknown field", `{"graph":"twostars","bogus":1}`, http.StatusBadRequest},
		{"ris+lt", `{"graph":"twostars","engine":"ris","model":"lt"}`, http.StatusBadRequest},
		{"negative tau", `{"graph":"twostars","tau":-7}`, http.StatusBadRequest},
		{"negative samples", `{"graph":"twostars","samples":-10}`, http.StatusBadRequest},
		{"negative ris pool", `{"graph":"twostars","engine":"ris","ris_per_group":-5}`, http.StatusBadRequest},
		{"negative eval samples", `{"graph":"twostars","eval_samples":-1}`, http.StatusBadRequest},
		{"negative max seeds", `{"graph":"twostars","max_seeds":-1}`, http.StatusBadRequest},
		{"negative budget", `{"graph":"twostars","problem":"p1","budget":-3}`, http.StatusBadRequest},
		{"bad quota", `{"graph":"twostars","problem":"p6","quota":1.5}`, http.StatusBadRequest},
		{"nan pow wrapper", `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"samples":30,"h":"powNaN","eval":"sample"}`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/select", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" || e.Error.Code == "" {
			t.Errorf("%s: no JSON error envelope in %s", tc.name, body)
		}
	}
}

// oversizedBodies each ask for more than estimator.MaxSamples samples. The
// first three once took the daemon down with a fatal out-of-memory: the
// forward-MC worlds, the RR pool and the fresh report's worlds. The last
// asks for the default RIS pool, 20·samples, above the cap.
var oversizedBodies = []string{
	`{"graph":"twoblock","engine":"forward-mc","samples":400000000,"eval":"sample"}`,
	`{"graph":"twoblock","engine":"ris","ris_per_group":1200000000,"eval":"sample"}`,
	`{"graph":"twoblock","samples":200,"eval":"fresh","eval_samples":400000000}`,
	`{"graph":"twoblock","engine":"ris","samples":60000,"eval":"sample"}`,
}

// TestOversizedCountsRefused: every oversized body gets a 400 bad_spec on
// select and estimate before any sample is built, while the same 60,000
// worlds stay acceptable to forward MC, which draws no RR pool.
func TestOversizedCountsRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, body := range oversizedBodies {
		requests := [][2]string{{"/v1/select", body}}
		if !strings.Contains(body, "eval_samples") { // not an estimate field
			requests = append(requests, [2]string{"/v1/estimate", strings.Replace(body, "{", `{"seeds":[0],`, 1)})
		}
		for _, r := range requests {
			resp, out := postJSON(t, ts.URL+r[0], r[1])
			var e errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(out, &e) != nil || e.Error.Code != CodeBadSpec {
				t.Errorf("%s %s: status %d body %s, want 400 %s", r[0], r[1], resp.StatusCode, out, CodeBadSpec)
			}
		}
	}
	if st := s.CacheStats(); st.Builds != 0 {
		t.Fatalf("refused requests built %d samples", st.Builds)
	}
	if _, err := (SolveRequest{Graph: "twoblock", Engine: "forward-mc", Samples: 60000}).toSpec(); err != nil {
		t.Fatalf("forward MC with 60,000 worlds refused: %v", err)
	}
}

// FuzzSolveRequestSpec feeds arbitrary bodies through the strict decode
// and toSpec. Nothing may panic, and a spec toSpec accepts draws no sample
// count above the cap: its worlds, its RR pool when the RIS engine runs,
// and its fresh report's worlds (eval_samples, else samples).
func FuzzSolveRequestSpec(f *testing.F) {
	for _, body := range append([]string{
		clusterSelectBody,
		`{"graph":"g","engine":"ris","samples":52428,"eval_samples":1048576}`,
		`{"graph":"g","samples":1048576,"ris_per_group":1048577}`,
		`{"graph":"g","accuracy":{"epsilon":0.2,"delta":0.05},"eval":"fresh"}`,
		`{"graph":"g","samples":-1}`,
		`{"graph":"g","bogus":1}`,
	}, oversizedBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		if !decodeStrict(httptest.NewRecorder(), body, &req) {
			return
		}
		if spec, err := req.toSpec(); err == nil {
			checkSpecCounts(t, body, spec)
		}
	})
}

// checkSpecCounts fails t unless an accepted spec draws every sample
// count within the cap.
func checkSpecCounts(t *testing.T, body []byte, spec fairim.ProblemSpec) {
	t.Helper()
	within := func(n int) bool { return n >= 0 && n <= estimator.MaxSamples }
	worlds, pool := spec.Sampling.Samples, spec.Sampling.RISPerGroup
	report := spec.EvalSamples
	if report == 0 {
		report = worlds
	}
	if !within(worlds) || !within(report) || (spec.Engine == fairim.EngineRIS && !within(pool)) {
		t.Fatalf("accepted %s with samples %d, ris_per_group %d, eval_samples %d", body, worlds, pool, spec.EvalSamples)
	}
}

// FuzzBatchSolveRequest feeds arbitrary bodies through the batch
// endpoint's decode and toSpec per item. Nothing may panic, an empty
// batch or one over maxBatchRequests is refused, and every item toSpec
// accepts draws no sample count above the cap.
func FuzzBatchSolveRequest(f *testing.F) {
	items := func(n int, item string) string {
		return `{"requests":[` + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + `]}`
	}
	for _, body := range []string{
		items(3, `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","ris_per_group":40,"seed":7}`),
		items(2, `{"graph":"g","engine":"ris","samples":52428,"eval_samples":1048576}`),
		`{"requests":[{"graph":"g","samples":1048577},{"graph":"g","bogus":1},{"graph":"g","samples":-1}]}`,
		items(maxBatchRequests, `{"graph":"g"}`),
		items(maxBatchRequests+1, `{"graph":"g"}`),
		`{"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[{}],"extra":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := decodeBatch(httptest.NewRecorder(), body)
		if !ok {
			return
		}
		if n := len(req.Requests); n == 0 || n > maxBatchRequests {
			t.Fatalf("accepted a batch of %d requests", n)
		}
		for _, sub := range req.Requests {
			if spec, err := sub.toSpec(); err == nil {
				checkSpecCounts(t, body, spec)
			}
		}
	})
}

func TestEstimate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/estimate",
		`{"graph":"twostars","seeds":[0,11],"tau":3,"engine":"ris","samples":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out EstimateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// Certain edges: the two hubs reach all 17 nodes within τ=3.
	if out.Total < 16.5 || out.Total > 17.5 {
		t.Fatalf("total = %v, want ≈17 (%s)", out.Total, body)
	}
	if out.Disparity != 0 {
		t.Fatalf("disparity = %v, want 0 on full coverage", out.Disparity)
	}

	// Estimate with no seeds is a client error.
	resp, _ = postJSON(t, ts.URL+"/v1/estimate", `{"graph":"twostars","seeds":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty seeds: status %d, want 400", resp.StatusCode)
	}
	// Out-of-range seed ids are rejected by fairim validation.
	resp, _ = postJSON(t, ts.URL+"/v1/estimate", `{"graph":"twostars","seeds":[99]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seed id: status %d, want 400", resp.StatusCode)
	}
	// The body cap of every other POST applies: a valid object padded
	// past maxBodyBytes is rejected, not decoded.
	resp, body = postJSON(t, ts.URL+"/v1/estimate",
		`{"graph":"twostars","seeds":[0,11],"tau":3,"engine":"ris","samples":50}`+strings.Repeat(" ", maxBodyBytes+1))
	var e errorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error.Code != CodeBadRequest {
		t.Fatalf("oversized body: status %d: %s", resp.StatusCode, body)
	}
}

func TestGraphsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/select", `{"graph":"twostars","problem":"p1","budget":1,"tau":3,"samples":20}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup select failed: %s", body)
	}

	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != 2 {
		t.Fatalf("got %d graphs, want 2", len(list.Graphs))
	}
	byName := map[string]GraphInfo{}
	for _, gi := range list.Graphs {
		byName[gi.Name] = gi
	}
	if !byName["twostars"].Loaded || byName["twostars"].Nodes != 17 || byName["twostars"].Groups != 2 {
		t.Fatalf("twostars info wrong: %+v", byName["twostars"])
	}
	if byName["twoblock"].Loaded {
		t.Fatalf("twoblock should not be force-loaded by introspection: %+v", byName["twoblock"])
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string     `json:"status"`
		Cache  CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Cache.Builds != 1 {
		t.Fatalf("health = %+v", health)
	}
}

// TestSingleflight issues many concurrent identical requests and checks
// the RR-sketch pool was built exactly once.
func TestSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 16})
	const workers = 8
	req := `{"graph":"twoblock","problem":"p1","budget":3,"tau":20,"engine":"ris","samples":100,"eval":"sample"}`
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSONAsync(ts.URL+"/v1/select", req)
			if resp == nil {
				errs <- fmt.Errorf("request failed")
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Builds != 1 {
		t.Fatalf("%d concurrent identical requests built %d sketches, want exactly 1 (stats %+v)", workers, st.Builds, st)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d (stats %+v)", st.Hits, workers-1, st)
	}
}

// postJSONAsync is postJSON without *testing.T for use inside goroutines.
func postJSONAsync(url, body string) (*http.Response, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestSingleflightJoinersHoldNoSlot runs concurrent identical cold
// requests against a single-slot pool: only the builder may hold the slot
// while sampling, so joiners must not shed or deadlock — everyone gets a
// 200 from one build.
func TestSingleflightJoinersHoldNoSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	const workers = 4
	req := `{"graph":"twoblock","problem":"p1","budget":2,"tau":20,"engine":"ris","ris_per_group":20000,"samples":100,"eval":"sample"}`
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSONAsync(ts.URL+"/v1/select", req)
			if resp == nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("response %v: %s", resp, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Builds != 1 {
		t.Fatalf("built %d sketches, want 1 (%+v)", st.Builds, st)
	}
}

// TestWarmRequestFaster asserts the acceptance criterion: a repeated
// request against the warm sketch cache is measurably faster than the
// cold request that built it.
func TestWarmRequestFaster(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A pool large enough that sketch sampling dominates the cold request.
	req := `{"graph":"twoblock","problem":"p4","budget":5,"tau":20,"engine":"ris","samples":100,"ris_per_group":30000,"eval":"sample"}`

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/select", req)
	cold := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, body)
	}
	var coldOut SolveResponse
	if err := json.Unmarshal(body, &coldOut); err != nil {
		t.Fatal(err)
	}
	if coldOut.CacheHit || coldOut.SampleMS <= 0 {
		t.Fatalf("cold request should build the sketch: %s", body)
	}

	start = time.Now()
	resp, body = postJSON(t, ts.URL+"/v1/select", req)
	warm := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	var warmOut SolveResponse
	if err := json.Unmarshal(body, &warmOut); err != nil {
		t.Fatal(err)
	}
	if !warmOut.CacheHit {
		t.Fatalf("warm request missed the cache: %s", body)
	}
	if warmOut.Total != coldOut.Total || len(warmOut.Seeds) != len(coldOut.Seeds) {
		t.Fatalf("warm result differs from cold: %v vs %v", warmOut, coldOut)
	}
	if warm >= cold {
		t.Fatalf("warm request (%v) not faster than cold (%v) despite cache hit", warm, cold)
	}
	t.Logf("cold %v (sample %.1fms), warm %v — %.1fx speedup", cold, coldOut.SampleMS, warm, float64(cold)/float64(warm))
}

// TestOverloadSheds checks graceful degradation: with one worker slot and
// a tiny queue timeout, a request arriving while the slot is held is shed
// with 503 instead of piling up.
func TestOverloadSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueTimeout: time.Millisecond})
	slow := `{"graph":"twoblock","problem":"p1","budget":3,"tau":20,"engine":"ris","ris_per_group":30000,"samples":100,"seed":11,"eval":"sample"}`
	fast := `{"graph":"twostars","problem":"p1","budget":1,"tau":3,"samples":20,"seed":12}`

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		postJSONAsync(ts.URL+"/v1/select", slow)
	}()
	<-started
	// Give the slow solve a moment to take the worker slot, then collide.
	deadline := time.Now().Add(2 * time.Second)
	sawShed := false
	for time.Now().Before(deadline) {
		resp, _ := postJSONAsync(ts.URL+"/v1/select", fast)
		if resp != nil && resp.StatusCode == http.StatusServiceUnavailable {
			sawShed = true
			break
		}
		select {
		case <-done: // slow request finished before we collided; reissue it
			t.Skip("slow request completed too quickly to observe shedding")
		default:
		}
	}
	<-done
	if !sawShed {
		t.Fatal("never observed a 503 while the single worker slot was held")
	}
}

// TestColdRequestShedOnce: with the only worker slot held, a cold spec's
// sample build is shed after one queue timeout. Both the select and a
// one-item batch then answer capacity at once — the solve must not queue
// for (and be shed from) the slot a second time.
func TestColdRequestShedOnce(t *testing.T) {
	const spec = `{"graph":"twostars","problem":"p1","budget":2,"tau":3,"engine":"ris","samples":50}`
	for _, tc := range []struct{ name, path, body string }{
		{"select", "/v1/select", spec},
		{"batch", "/v1/select/batch", `{"requests":[` + spec + `]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueTimeout: 50 * time.Millisecond})
			s.sem <- struct{}{}
			defer s.release()
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			code := ""
			if tc.path == "/v1/select" {
				var e errorResponse
				if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &e) != nil {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				code = e.Error.Code
			} else {
				var out BatchSolveResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil || len(out.Items) != 1 || out.Items[0].Error == nil {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				code = out.Items[0].Error.Code
			}
			if code != CodeCapacity {
				t.Fatalf("error code %q, want %q: %s", code, CodeCapacity, body)
			}
			if shed := s.Stats().Workers.Shed; shed != 1 {
				t.Fatalf("shed = %d, want 1: a request is shed once", shed)
			}
		})
	}
}
