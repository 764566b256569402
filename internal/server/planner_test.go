package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"fairtcim/internal/fairim"
)

// TestBatchSelectEndpoint drives POST /v1/select/batch end to end:
// compatible requests coalesce onto one shared run and one sample
// build, answers are positional and bit-identical to the per-request
// endpoint, and a bad spec or unknown graph fails only its own item.
func TestBatchSelectEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/select/batch", `{"requests":[
		{"graph":"twostars","problem":"p1","budget":1,"tau":3,"engine":"ris","samples":50},
		{"graph":"twostars","problem":"p1","budget":2,"tau":3,"engine":"ris","samples":50},
		{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50},
		{"graph":"twostars","problem":"p9"},
		{"graph":"nowhere","problem":"p1","budget":1}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchSolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if len(out.Items) != 5 {
		t.Fatalf("%d items for 5 requests: %s", len(out.Items), body)
	}
	// The two p1 specs share a run; p4 differs in objective and runs alone.
	if out.PlannerGroups != 1 || out.PlannerSingletons != 1 || out.Coalesced != 2 {
		t.Fatalf("planner tallies groups=%d singletons=%d coalesced=%d, want 1/1/2: %s",
			out.PlannerGroups, out.PlannerSingletons, out.Coalesced, body)
	}
	for i := 0; i < 3; i++ {
		it := out.Items[i]
		if it.Error != nil || it.Response == nil {
			t.Fatalf("item %d failed: %+v", i, it.Error)
		}
		if it.Response.GraphVersion != out.Items[0].Response.GraphVersion {
			t.Fatalf("items mix graph versions: %s", body)
		}
	}
	if got := len(out.Items[0].Response.Seeds); got != 1 {
		t.Fatalf("item 0: %d seeds, want its own budget 1", got)
	}
	if got := out.Items[1].Response.Seeds; len(got) != 2 || got[0] != 0 || got[1] != 11 {
		t.Fatalf("item 1 seeds = %v, want the two hubs [0 11]", got)
	}
	if out.Items[3].Error == nil || out.Items[3].Error.Code != CodeBadSpec {
		t.Fatalf("bad problem not rejected per-item: %+v", out.Items[3])
	}
	if out.Items[4].Error == nil || out.Items[4].Error.Code != CodeGraphNotFound {
		t.Fatalf("unknown graph not rejected per-item: %+v", out.Items[4])
	}
	// All three solvable specs share one sample key → exactly one build.
	if st := s.CacheStats(); st.Builds != 1 {
		t.Fatalf("cache stats %+v, want exactly 1 build for the whole batch", st)
	}
	if st := s.Stats().Planner; st.Batches != 1 || st.Groups != 1 || st.Singletons != 1 || st.Coalesced != 2 {
		t.Fatalf("/v1/stats planner counters %+v", st)
	}

	// Parity with the per-request endpoint, spec by spec.
	singles := []string{
		`{"graph":"twostars","problem":"p1","budget":1,"tau":3,"engine":"ris","samples":50}`,
		`{"graph":"twostars","problem":"p1","budget":2,"tau":3,"engine":"ris","samples":50}`,
		`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50}`,
	}
	for i, req := range singles {
		resp, body := postJSON(t, ts.URL+"/v1/select", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %d status %d: %s", i, resp.StatusCode, body)
		}
		var single SolveResponse
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatal(err)
		}
		batched := out.Items[i].Response
		if len(single.Seeds) != len(batched.Seeds) {
			t.Fatalf("spec %d: %d vs %d seeds", i, len(single.Seeds), len(batched.Seeds))
		}
		for j := range single.Seeds {
			if single.Seeds[j] != batched.Seeds[j] {
				t.Fatalf("spec %d: seeds %v != %v", i, single.Seeds, batched.Seeds)
			}
		}
		if single.Total != batched.Total || single.Disparity != batched.Disparity || single.NormTotal != batched.NormTotal {
			t.Fatalf("spec %d: utilities diverge between batch and single path", i)
		}
	}
}

// TestBatchSelectWarmAcrossBatches checks the planner reads and feeds
// the prefix memo: a later batch extending an earlier batch's budget
// replays the memoized seeds (warm_seeds echoes the reuse) with seeds
// identical to a cold run.
func TestBatchSelectWarmAcrossBatches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first := `{"requests":[{"graph":"twostars","problem":"p4","budget":1,"tau":3,"engine":"ris","samples":50}]}`
	resp, body := postJSON(t, ts.URL+"/v1/select/batch", first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch: %d %s", resp.StatusCode, body)
	}
	second := `{"requests":[
		{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50},
		{"graph":"twostars","problem":"p4","budget":1,"tau":3,"engine":"ris","samples":50}
	]}`
	resp, body = postJSON(t, ts.URL+"/v1/select/batch", second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second batch: %d %s", resp.StatusCode, body)
	}
	var out BatchSolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Coalesced != 2 {
		t.Fatalf("second batch did not coalesce: %s", body)
	}
	ext := out.Items[0].Response
	if ext == nil || ext.WarmSeeds != 1 {
		t.Fatalf("extension did not consume the memoized prefix: %s", body)
	}
	if len(ext.Seeds) != 2 || ext.Seeds[0] != 0 || ext.Seeds[1] != 11 {
		t.Fatalf("warm extension seeds = %v, want [0 11]", ext.Seeds)
	}
	if rep := out.Items[1].Response; rep == nil || rep.WarmSeeds != 1 || len(rep.Seeds) != 1 {
		t.Fatalf("budget-1 repeat should be a pure replay: %s", body)
	}
}

// TestCoalesceWindowBatchesSelects checks the transparent batching
// path: with a coalescing window configured, concurrent /v1/select
// requests for one graph land in one shared planner batch and still
// each receive their own correct response.
func TestCoalesceWindowBatchesSelects(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceWindow: 300 * time.Millisecond})
	var wg sync.WaitGroup
	responses := make([]SolveResponse, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"graph":"twostars","problem":"p1","budget":%d,"tau":3,"engine":"ris","samples":50}`, i%2+1)
			resp, raw := postJSON(t, ts.URL+"/v1/select", body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			errs[i] = json.Unmarshal(raw, &responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := i%2 + 1
		if len(responses[i].Seeds) != want {
			t.Fatalf("request %d got %d seeds, want %d", i, len(responses[i].Seeds), want)
		}
		if responses[i].Seeds[0] != 0 {
			t.Fatalf("request %d picked %v, want hub 0 first", i, responses[i].Seeds)
		}
	}
	st := s.Stats().Planner
	if st.Batches != 1 || st.Coalesced != 3 {
		t.Fatalf("planner stats %+v, want all 3 selects coalesced into 1 window batch", st)
	}
	if builds := s.CacheStats().Builds; builds != 1 {
		t.Fatalf("%d sample builds, want 1 shared build", builds)
	}
}

// TestBatchUpdateRaceSoak drives concurrent batched solves against
// graph-update churn. Run with -race. Each batch must see exactly one
// graph snapshot: every item reports the same graph_version, and no
// solve errors (torn snapshots, mixed-version estimators) surface.
func TestBatchUpdateRaceSoak(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})
	const (
		clients    = 4
		iterations = 6
		updates    = 12
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for u := 0; u < updates; u++ {
			p := 0.05 + float64(u%3)*0.01
			body := fmt.Sprintf(`{"edges":[{"from":1,"to":0,"p":%.2f}]}`, p)
			resp, raw := postJSON(t, ts.URL+"/v1/graphs/twostars/updates", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update %d: status %d: %s", u, resp.StatusCode, raw)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	batch := `{"requests":[
		{"graph":"twostars","problem":"p1","budget":1,"tau":3,"engine":"ris","samples":40},
		{"graph":"twostars","problem":"p1","budget":2,"tau":3,"engine":"ris","samples":40},
		{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":40}
	]}`
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				resp, raw := postJSON(t, ts.URL+"/v1/select/batch", batch)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch status %d: %s", resp.StatusCode, raw)
					return
				}
				var out BatchSolveResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					t.Error(err)
					return
				}
				version := uint64(0)
				for i, item := range out.Items {
					if item.Error != nil {
						t.Errorf("item %d errored under churn: %+v", i, item.Error)
						return
					}
					if i == 0 {
						version = item.Response.GraphVersion
					} else if item.Response.GraphVersion != version {
						t.Errorf("batch mixed graph versions %d and %d", version, item.Response.GraphVersion)
						return
					}
					if want := []int{1, 2, 2}[i]; len(item.Response.Seeds) != want {
						t.Errorf("item %d: %d seeds, want %d", i, len(item.Response.Seeds), want)
						return
					}
				}
				select {
				case <-stop:
					// Updates are done; a couple more reads are enough.
					if it >= iterations-2 {
						return
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
}

// TestFailedFetchNotAnsweredFromMemo: the prefix memo's LRU is separate
// from the sample LRU, so a memo can outlive its sample and cover a unit
// whose sample fetch fails. That unit must fail with its fetch error — it
// has no sample to report from — while its batchmate is answered.
func TestFailedFetchNotAnsweredFromMemo(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	g, version, err := s.reg.GetVersioned("twoblock")
	if err != nil {
		t.Fatal(err)
	}
	tau := int32(5)
	buildable := SolveRequest{Graph: "twoblock", Problem: "p1", Budget: 25, Tau: &tau, Engine: "forward-mc", Eval: "sample"}
	// The same spec, accuracy-sized: its eval-world count fits under the
	// auto-sizing cap, but its optimization sample does not.
	oversized := buildable
	oversized.Seed = 2
	oversized.Accuracy = &AccuracyRequest{Epsilon: 0.005, Delta: 0.01}
	var specs []fairim.ProblemSpec
	for _, req := range []SolveRequest{buildable, oversized} {
		spec, err := req.toSpec()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	_, fetchErr := fairim.HoeffdingWorlds(0.005, 0.01, 25, g.N(), g.NumGroups())
	if fetchErr == nil {
		t.Fatal("the oversized spec's sample fits under the cap")
	}

	// Plant a captured k=30 memo under the oversized spec's prefix key.
	capture := specs[0]
	capture.Budget = 30
	capture.CaptureWarm = true
	captured, err := fairim.Solve(g, capture)
	if err != nil {
		t.Fatal(err)
	}
	pk, ok := prefixKeyFor(sampleKeyFor("twoblock", version, g, specs[1], false), specs[1])
	if !ok || captured.Warm == nil {
		t.Fatalf("no memo to plant (memoizable %v, captured %v)", ok, captured.Warm)
	}
	s.cache.storeWarm(pk, captured.Warm)

	items, _, err := s.solveBatch(context.Background(), serverGate{s}, "twoblock", version, g, specs)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].err != nil || items[0].resp == nil || len(items[0].resp.Seeds) != 25 {
		t.Fatalf("buildable item: %+v", items[0])
	}
	if items[1].err == nil || items[1].err.Error() != fetchErr.Error() {
		t.Fatalf("oversized item: err %v, want the fetch error %q", items[1].err, fetchErr)
	}
}
