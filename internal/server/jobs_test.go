package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fairtcim/internal/fairim"
)

// pollJob polls GET /v1/jobs/{id} until the job leaves the active states
// or the deadline passes.
func pollJob(t *testing.T, base, id string, deadline time.Duration) JobStatus {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if terminal(st.Status) {
			return st
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s still %q after %v", id, st.Status, deadline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitJob(t *testing.T, base, body string) JobStatus {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.Status != JobQueued && st.Status != JobRunning) {
		t.Fatalf("implausible submission response: %s", raw)
	}
	return st
}

// TestJobLifecycle: a submitted job runs to completion and reports the
// same result the synchronous endpoint computes for the identical spec.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50}`

	st := submitJob(t, ts.URL, body)
	final := pollJob(t, ts.URL, st.ID, 30*time.Second)
	if final.Status != JobDone || final.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}
	if final.Picks != 2 || len(final.Result.Seeds) != 2 {
		t.Fatalf("picks=%d seeds=%v, want 2 picks", final.Picks, final.Result.Seeds)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/select", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync select: %s", raw)
	}
	var sync SolveResponse
	if err := json.Unmarshal(raw, &sync); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(final.Result.Seeds) != fmt.Sprint(sync.Seeds) || final.Result.Total != sync.Total {
		t.Fatalf("job result %v/%v differs from sync %v/%v",
			final.Result.Seeds, final.Result.Total, sync.Seeds, sync.Total)
	}
	// The job built the sample; the sync repeat must have hit the cache.
	if !sync.CacheHit {
		t.Error("sync repeat after the job missed the sample cache")
	}
}

// TestJobAccuracyTarget is the acceptance criterion: a job submitted with
// only an (ε,δ) accuracy target — no sample counts — completes a P4 solve
// whose pool size was derived by the stopping rule.
func TestJobAccuracyTarget(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Forward MC (default engine): the Hoeffding-based world count.
	st := submitJob(t, ts.URL,
		`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"accuracy":{"epsilon":0.2,"delta":0.05}}`)
	final := pollJob(t, ts.URL, st.ID, 60*time.Second)
	if final.Status != JobDone || final.Result == nil {
		t.Fatalf("accuracy job failed: %+v", final)
	}
	want, err := fairim.HoeffdingWorlds(0.2, 0.05, 2, 17, 2)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.ResolvedSamples != want {
		t.Errorf("resolved_samples = %d, want Hoeffding %d", final.Result.ResolvedSamples, want)
	}
	if len(final.Result.Seeds) != 2 {
		t.Errorf("seeds = %v, want 2", final.Result.Seeds)
	}

	// RIS: the geometric-doubling pool sizer.
	st = submitJob(t, ts.URL,
		`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","accuracy":{"epsilon":0.3,"delta":0.1}}`)
	final = pollJob(t, ts.URL, st.ID, 60*time.Second)
	if final.Status != JobDone || final.Result == nil {
		t.Fatalf("ris accuracy job failed: %+v", final)
	}
	if final.Result.ResolvedRISPerGroup < 256 {
		t.Errorf("resolved_ris_per_group = %d, want >= pilot pool", final.Result.ResolvedRISPerGroup)
	}

	// Identical accuracy request: the stopping-rule-sized sample must be
	// shared through the cache, not re-derived.
	resp, raw := postJSON(t, ts.URL+"/v1/select",
		`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","accuracy":{"epsilon":0.3,"delta":0.1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm accuracy select: %s", raw)
	}
	var warm SolveResponse
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("identical accuracy request missed the cache")
	}
	if warm.ResolvedRISPerGroup != final.Result.ResolvedRISPerGroup {
		t.Errorf("cached pool %d differs from job's %d", warm.ResolvedRISPerGroup, final.Result.ResolvedRISPerGroup)
	}
}

// readTrace streams GET /v1/jobs/{id}/trace up to its "done" event and
// returns the "pick" events.
func readTrace(t *testing.T, base, id string) []TraceEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var picks []TraceEvent
	var done bool
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "pick":
				var ev TraceEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad pick payload %q: %v", data, err)
				}
				picks = append(picks, ev)
			case "done":
				done = true
			}
		}
		if done {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("stream ended without a done event")
	}
	return picks
}

// TestJobTraceStreams consumes the SSE endpoint and checks one "pick"
// event arrives per greedy iteration, terminated by a "done" event.
func TestJobTraceStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submitJob(t, ts.URL,
		`{"graph":"twostars","problem":"p1","budget":2,"tau":3,"engine":"ris","samples":50,"seed":7}`)

	picks := readTrace(t, ts.URL, st.ID)
	if len(picks) != 2 {
		t.Fatalf("streamed %d picks, want 2 (one per greedy iteration)", len(picks))
	}
	for i, ev := range picks {
		if ev.Iteration != i+1 {
			t.Errorf("pick %d has iteration %d", i, ev.Iteration)
		}
		if len(ev.NormGroup) != 2 {
			t.Errorf("pick %d: %d groups in snapshot", i, len(ev.NormGroup))
		}
	}
	// Utilities grow monotonically along the greedy path.
	for i := 1; i < len(picks); i++ {
		if picks[i].Total < picks[i-1].Total {
			t.Errorf("total decreased: %v -> %v", picks[i-1].Total, picks[i].Total)
		}
	}

	final := pollJob(t, ts.URL, st.ID, 10*time.Second)
	if final.Status != JobDone || final.Picks != 2 {
		t.Fatalf("final job state: %+v", final)
	}
}

// TestJobReplaysSelectPrefix: a job is a batch of one on the select
// pipeline, so a job for a spec a select already solved reuses the
// sample and replays the memoized prefix — zero evaluations, every seed
// warm — while its trace still streams one pick per seed. Neither the
// selects nor the job count as planner batches.
func TestJobReplaysSelectPrefix(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50}`
	for i := 0; i < 2; i++ {
		if resp, raw := postJSON(t, ts.URL+"/v1/select", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("select %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	st := submitJob(t, ts.URL, body)
	if picks := readTrace(t, ts.URL, st.ID); len(picks) != 2 {
		t.Fatalf("streamed %d picks, want one per seed", len(picks))
	}
	final := pollJob(t, ts.URL, st.ID, 30*time.Second)
	if final.Status != JobDone || final.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}
	if res := final.Result; !res.CacheHit || res.WarmSeeds != 2 || res.Evaluations != 0 {
		t.Fatalf("job cache_hit=%v warm_seeds=%d evaluations=%d, want true/2/0",
			res.CacheHit, res.WarmSeeds, res.Evaluations)
	}
	if p := s.Stats().Planner; p != (PlannerStats{}) {
		t.Fatalf("planner counters %+v after selects and a job, want none", p)
	}
}

func TestJobErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown graph", `{"graph":"nope"}`, http.StatusNotFound},
		{"bad body", `{"graph":`, http.StatusBadRequest},
		{"unknown problem", `{"graph":"twostars","problem":"p9"}`, http.StatusBadRequest},
		{"accuracy and samples", `{"graph":"twostars","samples":50,"accuracy":{"epsilon":0.2,"delta":0.05}}`, http.StatusBadRequest},
		{"bad epsilon", `{"graph":"twostars","accuracy":{"epsilon":2,"delta":0.05}}`, http.StatusBadRequest},
		{"bad delta", `{"graph":"twostars","accuracy":{"epsilon":0.2}}`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/deadbeef/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}
}

// TestStatsEndpoint: /v1/stats rolls up cache, worker-pool and job
// counters.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 3})
	// One sync solve and one job, so both cache and job counters move.
	resp, raw := postJSON(t, ts.URL+"/v1/select",
		`{"graph":"twostars","problem":"p1","budget":1,"tau":3,"samples":30}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %s", raw)
	}
	st := submitJob(t, ts.URL, `{"graph":"twostars","problem":"p1","budget":1,"tau":3,"samples":30}`)
	pollJob(t, ts.URL, st.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers.Capacity != 3 {
		t.Errorf("capacity %d, want 3", stats.Workers.Capacity)
	}
	if stats.Cache.Builds < 1 || stats.Cache.Hits < 1 {
		t.Errorf("cache counters did not move: %+v", stats.Cache)
	}
	if stats.Jobs.Done < 1 {
		t.Errorf("jobs.done = %d, want >= 1", stats.Jobs.Done)
	}
	if stats.Jobs.Queued != 0 || stats.Jobs.Running != 0 {
		t.Errorf("active job counts nonzero after completion: %+v", stats.Jobs)
	}

	// The job listing mirrors the store.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job listing %+v, want the one submitted job", list.Jobs)
	}
	if list.Jobs[0].Result != nil {
		t.Error("listing should omit full results")
	}
}

// TestSyncTraceField: a synchronous request with trace:true carries the
// per-iteration picks inline.
func TestSyncTraceField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/select",
		`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"samples":40,"trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) != 2 {
		t.Fatalf("trace has %d events, want 2: %s", len(out.Trace), raw)
	}
	if out.Trace[0].Iteration != 1 || out.Trace[0].Seed != out.Seeds[0] {
		t.Errorf("first trace event %+v does not match first seed %d", out.Trace[0], out.Seeds[0])
	}
}

// TestJobCancelQueued: DELETE on a job still waiting for a worker slot
// aborts it before it ever acquires one — deterministically, by holding
// the single slot while the job is queued.
func TestJobCancelQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // occupy the only worker slot
	released := false
	defer func() {
		if !released {
			<-s.sem
		}
	}()

	st := submitJob(t, ts.URL, `{"graph":"twostars","problem":"p1","budget":2,"tau":3,"samples":30}`)
	if st.Status != JobQueued {
		t.Fatalf("job with a saturated pool reported %q, want queued", st.Status)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d, want 202", resp.StatusCode)
	}

	final := pollJob(t, ts.URL, st.ID, 10*time.Second)
	if final.Status != JobCanceled {
		t.Fatalf("job ended %q, want canceled", final.Status)
	}
	if final.Picks != 0 {
		t.Errorf("canceled-while-queued job made %d picks", final.Picks)
	}
	// The slot was never consumed by the canceled job.
	<-s.sem
	released = true

	stats := s.Stats()
	if stats.Jobs.Canceled != 1 || stats.Jobs.Queued != 0 || stats.Jobs.Running != 0 {
		t.Errorf("job stats after cancel: %+v", stats.Jobs)
	}

	// Cancelling a finished job conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel status %d, want 409", resp.StatusCode)
	}

	// Unknown ids are 404.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/deadbeef", nil)
	resp, err = http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-id cancel status %d, want 404", resp.StatusCode)
	}
}

// TestSolveCancelMidRun drives the server solve pipeline with a context
// cancelled from the OnIteration callback — exactly between greedy picks,
// the seam DELETE /v1/jobs/{id} relies on — and checks the cancellation
// comes back as such, not as a capacity 503 or a finished solve.
func TestSolveCancelMidRun(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	g, err := s.reg.Get("twostars")
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Graph: "twostars", Problem: "p1", Budget: 5, Engine: "ris", Samples: 50}
	spec, err := req.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec.Cancel = ctx.Done()
	picks := 0
	spec.OnIteration = func(fairim.IterationStat) {
		picks++
		if picks == 1 {
			cancel()
		}
	}
	_, err = s.solveOne(ctx, blockingGate{s}, "twostars", 1, g, spec)
	if !errors.Is(err, fairim.ErrCanceled) {
		t.Fatalf("err = %v, want fairim.ErrCanceled", err)
	}
	if picks != 1 {
		t.Fatalf("solve made %d picks after the cancel, want exactly 1", picks)
	}
	// The worker slot was released on the error path.
	if len(s.sem) != 0 {
		t.Fatalf("%d worker slots leaked", len(s.sem))
	}
}

// TestJobEvictionOnFinish: finished history above the retention bound is
// trimmed when jobs finish, not only on the next submit, and the active
// cap is tracked incrementally across finishes.
func TestJobEvictionOnFinish(t *testing.T) {
	st := newJobStore(2, 3, nil)
	finish := func(j *job) {
		st.finish(j, &SolveResponse{}, nil)
	}
	// The active cap binds...
	j1, err := st.add("g", "P1")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := st.add("g", "P1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.add("g", "P1"); err == nil {
		t.Fatal("third active job accepted over maxActive=2")
	}
	// ...and frees up as jobs finish, without any submit in between.
	finish(j1)
	finish(j2)
	for i := 0; i < 3; i++ {
		j, err := st.add("g", "P1")
		if err != nil {
			t.Fatalf("add %d after finishes: %v", i, err)
		}
		finish(j)
	}
	// 5 finished jobs, retention 3: eviction happened on finish.
	st.mu.Lock()
	kept := len(st.order)
	st.mu.Unlock()
	if kept != 3 {
		t.Fatalf("%d finished jobs retained, want 3", kept)
	}
	if s := st.stats(); s.Done != 5 {
		t.Errorf("cumulative done = %d, want 5 (eviction must not erase counters)", s.Done)
	}
	// The oldest jobs are the evicted ones.
	if _, ok := st.get(j1.id); ok {
		t.Error("oldest finished job still resident")
	}
}
