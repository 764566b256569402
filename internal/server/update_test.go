package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
)

// twoStarsDelta is the canonical test batch: one weak back-edge into the
// group-0 hub. Every RR set rooted in group 0 contains node 0 (the hub
// reaches all its leaves with p=1), so exactly half of a twostars sketch
// goes dirty — a deterministic partial refresh under the default 0.75
// threshold.
const twoStarsDelta = `{"edges":[{"from":1,"to":0,"p":0.05}]}`

func postUpdate(t *testing.T, url, name, body string) (*http.Response, GraphUpdateResponse, []byte) {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/graphs/"+name+"/updates", body)
	var out GraphUpdateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp, out, raw
}

func TestGraphUpdateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out, raw := postUpdate(t, ts.URL, "twostars", twoStarsDelta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if out.Version != 2 || out.EdgesAdded != 1 || out.EdgesUpdated != 0 || out.EdgesRemoved != 0 {
		t.Fatalf("update response = %+v", out)
	}
	if out.Edges != 16 || out.Nodes != 17 {
		t.Fatalf("post-update shape %d nodes / %d edges, want 17/16", out.Nodes, out.Edges)
	}
	if len(out.TouchedHeads) != 1 || out.TouchedHeads[0] != 0 {
		t.Fatalf("touched_heads = %v, want [0]", out.TouchedHeads)
	}

	// The registry row reflects the bump.
	resp2, err := http.Get(ts.URL + "/v1/graphs/twostars")
	if err != nil {
		t.Fatal(err)
	}
	var info GraphInfo
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if info.Version != 2 || info.Edges != 16 || !info.Loaded {
		t.Fatalf("graph row after update = %+v", info)
	}

	// Conditional update against the superseded version is a 409 with the
	// stable code; against the current version it applies.
	resp, _, raw = postUpdate(t, ts.URL, "twostars", `{"expect_version":1,"edges":[{"from":2,"to":0,"p":0.05}]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale expect_version: status %d: %s", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != CodeVersionConflict {
		t.Fatalf("conflict envelope = %s", raw)
	}
	resp, out, raw = postUpdate(t, ts.URL, "twostars", `{"expect_version":2,"edges":[{"from":2,"to":0,"p":0.05}]}`)
	if resp.StatusCode != http.StatusOK || out.Version != 3 {
		t.Fatalf("conditional update at current version: status %d: %s", resp.StatusCode, raw)
	}

	// Error paths with their envelope codes.
	for _, tc := range []struct {
		name, graph, body string
		status            int
		code              string
	}{
		{"unknown graph", "nope", twoStarsDelta, http.StatusNotFound, CodeGraphNotFound},
		{"empty delta", "twostars", `{}`, http.StatusBadRequest, CodeBadSpec},
		{"bad json", "twostars", `{"edges":`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", "twostars", `{"bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"bad probability", "twostars", `{"edges":[{"from":1,"to":0,"p":1.5}]}`, http.StatusBadRequest, CodeBadSpec},
		{"node out of range", "twostars", `{"edges":[{"from":99,"to":0,"p":0.5}]}`, http.StatusBadRequest, CodeBadSpec},
		{"remove missing edge", "twostars", `{"edges":[{"from":3,"to":4,"remove":true}]}`, http.StatusBadRequest, CodeBadSpec},
	} {
		resp, _, raw := postUpdate(t, ts.URL, tc.graph, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != tc.code {
			t.Errorf("%s: envelope code in %s, want %q", tc.name, raw, tc.code)
		}
	}
}

// TestUpdateInvalidatesMemoryCache pins the version-keyed cache contract:
// an update moves every subsequent request to a fresh key (no stale
// serving), the new sketch arrives by partial refresh (strictly fewer RR
// sets resampled than a cold build), and repeats at the new version hit
// the refreshed entry.
func TestUpdateInvalidatesMemoryCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","ris_per_group":40,"seed":7}`

	resp, body := postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %s", body)
	}
	var cold SolveResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.GraphVersion != 1 || cold.RRRefreshed != 0 || cold.RRRetained != 0 {
		t.Fatalf("cold solve metadata: %s", body)
	}

	if resp, _, raw := postUpdate(t, ts.URL, "twostars", twoStarsDelta); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s", raw)
	}

	resp, body = postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-update solve: %s", body)
	}
	var warm SolveResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.CacheHit {
		t.Fatalf("post-update solve hit the pre-update cache entry: %s", body)
	}
	if warm.GraphVersion != 2 {
		t.Fatalf("graph_version = %d, want 2", warm.GraphVersion)
	}
	// Exactly the group-0 pool (40 sets, all containing the touched hub)
	// resamples; the group-1 pool carries over verbatim.
	if warm.RRRefreshed != 40 || warm.RRRetained != 40 {
		t.Fatalf("rr_refreshed/rr_retained = %d/%d, want 40/40 (%s)", warm.RRRefreshed, warm.RRRetained, body)
	}
	// The weak 0.05 back-edge does not change the optimum.
	if len(warm.Seeds) != 2 || warm.Seeds[0] != 0 || warm.Seeds[1] != 11 {
		t.Fatalf("post-update seeds = %v, want [0 11]", warm.Seeds)
	}

	// A repeat at the new version is an ordinary cache hit echoing the
	// builder's refresh split.
	resp, body = postJSON(t, ts.URL+"/v1/select", req)
	var rep SolveResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || rep.RRRefreshed != 40 || rep.RRRetained != 40 {
		t.Fatalf("repeat at v2: %s", body)
	}

	st := s.CacheStats()
	if st.Refreshes != 1 || st.RRRefreshed != 40 || st.RRRetained != 40 {
		t.Fatalf("refresh counters = %+v", st)
	}
	if st.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (the refresh must not count as a cold build)", st.Builds)
	}
}

// TestUpdateInvalidatesWorldCache pins the forward-MC side: world sets
// cannot be refreshed, so the update drops them and reports how many
// realized a touched arc; the next request is a cold rebuild on the new
// snapshot.
func TestUpdateInvalidatesWorldCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"graph":"twostars","problem":"p1","budget":1,"tau":3,"samples":30,"seed":5}`
	if resp, body := postJSON(t, ts.URL+"/v1/select", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %s", body)
	}

	resp, out, raw := postUpdate(t, ts.URL, "twostars", twoStarsDelta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s", raw)
	}
	if out.Invalidation.EntriesDropped != 1 {
		t.Fatalf("invalidation = %+v, want 1 world entry dropped", out.Invalidation)
	}
	// The added arc 1→0 has p=0.05; with 30 worlds some realizing it is
	// not guaranteed, but none may exceed the set size.
	if out.Invalidation.WorldsTouched < 0 || out.Invalidation.WorldsTouched > 30 {
		t.Fatalf("worlds_touched = %d out of 30", out.Invalidation.WorldsTouched)
	}

	resp, body := postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-update solve: %s", body)
	}
	var sel SolveResponse
	if err := json.Unmarshal(body, &sel); err != nil {
		t.Fatal(err)
	}
	if sel.CacheHit || sel.GraphVersion != 2 {
		t.Fatalf("post-update forward-MC solve must rebuild cold at v2: %s", body)
	}
	if st := s.CacheStats(); st.Invalidated != 1 || st.Builds != 2 {
		t.Fatalf("stats after world invalidation = %+v", st)
	}
}

// TestUpdateVersionKeyedPersistence pins the disk tier across versions: a
// post-update request must never read the pre-update file — its
// version-keyed name misses as a clean cold start (zero disk_errors) —
// and a warm restart at the new version finds the refreshed sketch.
func TestUpdateVersionKeyedPersistence(t *testing.T) {
	dir := t.TempDir()
	reg := testRegistry(t)
	s, ts := newTestServer(t, Config{Registry: reg, StateDir: dir})
	req := `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","ris_per_group":40,"seed":7}`

	if resp, body := postJSON(t, ts.URL+"/v1/select", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %s", body)
	}
	s.WaitFlushes()
	if resp, _, raw := postUpdate(t, ts.URL, "twostars", twoStarsDelta); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s", raw)
	}

	resp, body := postJSON(t, ts.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-update solve: %s", body)
	}
	var warm SolveResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.CacheHit || warm.RRRefreshed != 40 {
		t.Fatalf("post-update solve should partial-refresh, not hit disk: %s", body)
	}
	s.WaitFlushes()
	st := s.CacheStats()
	if st.DiskErrors != 0 {
		t.Fatalf("version-keyed miss must be a clean cold start, got %d disk errors (%+v)", st.DiskErrors, st)
	}
	if st.DiskWrites != 2 {
		t.Fatalf("disk writes = %d, want 2 (v1 and refreshed v2)", st.DiskWrites)
	}

	// "Restart": a second server over the same registry (still at v2) and
	// state dir serves the refreshed sketch from disk without building.
	s2, ts2 := newTestServer(t, Config{Registry: reg, StateDir: dir})
	resp, body = postJSON(t, ts2.URL+"/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart solve: %s", body)
	}
	var restarted SolveResponse
	if err := json.Unmarshal(body, &restarted); err != nil {
		t.Fatal(err)
	}
	if !restarted.CacheHit || restarted.GraphVersion != 2 {
		t.Fatalf("restart at v2 should disk-hit the refreshed sketch: %s", body)
	}
	if st := s2.CacheStats(); st.DiskHits != 1 || st.Builds != 0 || st.DiskErrors != 0 {
		t.Fatalf("restart stats = %+v", st)
	}
	if restarted.Seeds[0] != warm.Seeds[0] || restarted.Seeds[1] != warm.Seeds[1] {
		t.Fatalf("restart picks %v != pre-restart %v", restarted.Seeds, warm.Seeds)
	}
}

// TestConcurrentUpdatesNoTornSnapshots hammers GetVersioned from readers
// while a writer applies two-edge batches and their inverses. Every batch
// lands atomically — a reader may see the base graph or the augmented
// graph, never one edge of two. Run under -race this also exercises the
// registry's locking.
func TestConcurrentUpdatesNoTornSnapshots(t *testing.T) {
	reg := testRegistry(t)
	g0, _, err := reg.GetVersioned("twostars")
	if err != nil {
		t.Fatal(err)
	}
	baseM := g0.M()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, v, err := reg.GetVersioned("twostars")
				if err != nil {
					t.Error(err)
					return
				}
				if m := g.M(); m != baseM && m != baseM+2 {
					t.Errorf("torn snapshot at v%d: %d edges, want %d or %d", v, m, baseM, baseM+2)
					return
				}
			}
		}()
	}

	add := graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, P: 0.05}, {From: 12, To: 11, P: 0.05}}}
	remove := graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, Remove: true}, {From: 12, To: 11, Remove: true}}}
	for i := 0; i < 25; i++ {
		if _, _, _, err := reg.ApplyUpdate("twostars", 0, add); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := reg.ApplyUpdate("twostars", 0, remove); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if _, v, _ := reg.GetVersioned("twostars"); v != 51 {
		t.Fatalf("final version = %d, want 51", v)
	}
}

// TestRefreshSkipsStaleHistory pins the history-gap fallback: a sketch
// more versions behind than the retained delta history rebuilds cold
// instead of refreshing from an uncoverable range.
func TestRefreshSkipsStaleHistory(t *testing.T) {
	reg := testRegistry(t)
	if _, _, err := reg.GetVersioned("twostars"); err != nil {
		t.Fatal(err)
	}
	d := graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, P: 0.05}}}
	inv := graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, Remove: true}}}
	for i := 0; i < deltaHistory; i++ { // push v1's record out of the window
		if _, _, _, err := reg.ApplyUpdate("twostars", 0, d); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := reg.ApplyUpdate("twostars", 0, inv); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := reg.TouchedSince("twostars", 1, 2*uint64(deltaHistory)+1); ok {
		t.Fatal("TouchedSince covered a range older than the retained history")
	}
	// A range inside the window still resolves.
	heads, groupsChanged, ok := reg.TouchedSince("twostars", 2*uint64(deltaHistory)-1, 2*uint64(deltaHistory)+1)
	if !ok || groupsChanged {
		t.Fatalf("in-window TouchedSince: ok=%v groupsChanged=%v", ok, groupsChanged)
	}
	if len(heads) != 1 || heads[0] != 0 {
		t.Fatalf("heads = %v, want [0]", heads)
	}
}

// TestSupersededSnapshotsCollectable: once a newer version's sketch is
// published, nothing the server keeps pins an older graph snapshot — not
// the sketch cache, the prefix memo, the fingerprint memo the state dir
// brings, nor the registry's loader, which captured version 1.
func TestSupersededSnapshotsCollectable(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterGraph("twostars", "synthetic:twostars", generate.TwoStars()); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Registry: reg, StateDir: t.TempDir()})
	req := `{"graph":"twostars","problem":"p4","budget":2,"tau":3,"engine":"ris","ris_per_group":40,"seed":7,"eval":"sample"}`
	selectOnce := func() {
		t.Helper()
		if resp, body := postJSON(t, ts.URL+"/v1/select", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("select: %s", body)
		}
	}
	const versions = 6
	snaps := make([]weak.Pointer[graph.Graph], 0, versions)
	for v := 1; v <= versions; v++ {
		g, gv, err := reg.GetVersioned("twostars")
		if err != nil || gv != uint64(v) {
			t.Fatalf("GetVersioned = v%d, %v; want v%d", gv, err, v)
		}
		snaps = append(snaps, weak.Make(g))
		selectOnce()
		delta := fmt.Sprintf(`{"edges":[{"from":1,"to":0,"p":%.2f}]}`, 0.05*float64(v))
		if resp, _, raw := postUpdate(t, ts.URL, "twostars", delta); resp.StatusCode != http.StatusOK {
			t.Fatalf("update to v%d: %s", v+1, raw)
		}
	}
	// Publishing the newest version's sketch supersedes the last one.
	selectOnce()
	s.WaitFlushes()
	if st := s.CacheStats(); st.Superseded != versions {
		t.Fatalf("superseded = %d, want %d", st.Superseded, versions)
	}
	runtime.GC()
	for i, p := range snaps {
		if p.Value() != nil {
			t.Errorf("superseded snapshot v%d is still reachable", i+1)
		}
	}
}

// TestPinnedSelectAfterSupersession: a select that read version 1 from
// the registry just before an update, and asks after version 2's sketch
// superseded version 1's, still answers bit-identically — from the disk
// tier's file with a state dir, from a cold rebuild without one.
func TestPinnedSelectAfterSupersession(t *testing.T) {
	req := SolveRequest{Graph: "twostars", Problem: "p4", Budget: 2, Engine: "ris", RISPerGroup: 40, Seed: 7, Eval: "sample"}
	tau := int32(3)
	req.Tau = &tau
	spec, err := req.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, stateDir := range []bool{false, true} {
		t.Run(fmt.Sprintf("state_dir=%v", stateDir), func(t *testing.T) {
			cfg := Config{}
			if stateDir {
				cfg.StateDir = t.TempDir()
			}
			s, _ := newTestServer(t, cfg)
			ctx := context.Background()
			g1, v1, err := s.reg.GetVersioned("twostars")
			if err != nil {
				t.Fatal(err)
			}
			before, err := s.solveOne(ctx, serverGate{s}, "twostars", v1, g1, spec)
			if err != nil {
				t.Fatal(err)
			}
			s.WaitFlushes()
			g2, v2, _, err := s.reg.ApplyUpdate("twostars", v1, graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, P: 0.05}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.solveOne(ctx, serverGate{s}, "twostars", v2, g2, spec); err != nil {
				t.Fatal(err)
			}
			if st := s.CacheStats(); st.Superseded != 1 {
				t.Fatalf("superseded = %d after publishing v2, want 1", st.Superseded)
			}
			pinned, err := s.solveOne(ctx, serverGate{s}, "twostars", v1, g1, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pinned.UtilityReport, before.UtilityReport) || pinned.GraphVersion != v1 {
				t.Fatalf("pinned v1 answer %+v differs from the pre-update %+v", pinned.UtilityReport, before.UtilityReport)
			}
			// The disk tier reloads v1's file; without one it is rebuilt.
			if pinned.CacheHit != stateDir {
				t.Errorf("pinned select cache_hit = %v, want %v", pinned.CacheHit, stateDir)
			}
		})
	}
}

// FuzzGraphUpdateRequest feeds arbitrary bodies through the update
// endpoint's strict decode and Registry.ApplyUpdate on the built-in
// 17-node two-star graph. Nothing may panic; a rejected delta leaves the
// graph at its version and snapshot, and an applied one moves it one
// version on, over the same nodes.
func FuzzGraphUpdateRequest(f *testing.F) {
	for _, body := range []string{
		`{"expect_version":1,"edges":[{"from":1,"to":0,"p":0.05}]}`,
		`{"edges":[{"from":0,"to":16,"p":1},{"from":16,"to":0,"remove":true}]}`,
		`{"groups":[{"node":3,"group":1}]}`,
		`{"expect_version":7,"edges":[{"from":1,"to":0,"p":0.5}]}`,
		`{"edges":[{"from":-1,"to":99,"p":2}]}`,
		`{"edges":[{"from":1,"to":0,"p":0.5},{"from":1,"to":0,"p":0.25}]}`,
		`{"groups":[{"node":0,"group":-3}]}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	base := generate.TwoStars()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req GraphUpdateRequest
		if !decodeStrict(httptest.NewRecorder(), body, &req) {
			return
		}
		reg := NewRegistry()
		if err := reg.RegisterGraph("twostars", "synthetic:twostars", base); err != nil {
			t.Fatal(err)
		}
		d := graph.Delta{Edges: req.Edges, Groups: req.Groups}
		if d.Empty() {
			return // the handler refuses it before the registry
		}
		ng, version, _, err := reg.ApplyUpdate("twostars", req.ExpectVersion, d)
		g, v, gerr := reg.GetVersioned("twostars")
		if gerr != nil {
			t.Fatal(gerr)
		}
		if err != nil {
			if v != 1 || g != base {
				t.Fatalf("rejected %s (%v), yet the graph moved to version %d", body, err, v)
			}
			return
		}
		if version != 2 || v != 2 || g != ng || ng.N() != base.N() {
			t.Fatalf("applied %s: version %d (registry %d), %d nodes", body, version, v, ng.N())
		}
	})
}
