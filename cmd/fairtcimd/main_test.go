package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fairtcim/internal/server"
)

func TestParseFlags(t *testing.T) {
	var errw bytes.Buffer
	o, err := parseFlags([]string{"-graph", "a=x.txt", "-graph", "b=y.txt", "-cache", "4"}, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if o.graphs["a"] != "x.txt" || o.graphs["b"] != "y.txt" || o.cacheSize != 4 {
		t.Fatalf("parsed options: %+v", o)
	}
	if o.stateDir != "" || o.jobRetention != 0 {
		t.Fatalf("persistence defaults: %+v", o)
	}
	o, err = parseFlags([]string{"-state-dir", "/tmp/state", "-job-retention", "17"}, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if o.stateDir != "/tmp/state" || o.jobRetention != 17 {
		t.Fatalf("persistence flags: %+v", o)
	}
	if _, err := parseFlags([]string{"-graph", "nopath"}, &errw); err == nil {
		t.Fatal("malformed -graph accepted")
	}
	if _, err := parseFlags([]string{"-graph", "a=x", "-graph", "a=y"}, &errw); err == nil {
		t.Fatal("duplicate -graph name accepted")
	}
}

func TestBuildRegistry(t *testing.T) {
	reg, err := buildRegistry(&options{graphs: map[string]string{"extra": "/tmp/none.txt"}})
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Join(reg.Names(), ",")
	for _, want := range []string{"twoblock", "twostars", "extra"} {
		if !strings.Contains(names, want) {
			t.Fatalf("registry %q missing %q", names, want)
		}
	}
	reg, err = buildRegistry(&options{noBuiltin: true, graphs: map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Names()) != 0 {
		t.Fatalf("-no-builtin registry not empty: %v", reg.Names())
	}
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port, runs a select
// against a built-in synthetic graph and shuts down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var errw bytes.Buffer
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &errw, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (%s)", err, errw.String())
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	base := "http://" + addr
	resp, err := http.Post(base+"/v1/select", "application/json",
		strings.NewReader(`{"graph":"twostars","problem":"p1","budget":2,"tau":3,"samples":30}`))
	if err != nil {
		t.Fatal(err)
	}
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Seeds) != 2 {
		t.Fatalf("select: status %d seeds %v", resp.StatusCode, out.Seeds)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Submit an accuracy-targeted async job and poll it to completion.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"graph":"twostars","problem":"p4","budget":2,"tau":3,"accuracy":{"epsilon":0.3,"delta":0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("job submit: status %d %+v", resp.StatusCode, job)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.Status != server.JobDone && job.Status != server.JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 30s", job.Status)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != server.JobDone || job.Result == nil || len(job.Result.Seeds) != 2 {
		t.Fatalf("job did not finish cleanly: %+v", job)
	}
	if job.Result.ResolvedSamples <= 0 {
		t.Fatalf("accuracy job did not report a resolved budget: %+v", job.Result)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(errw.String(), "listening on") {
		t.Fatalf("missing startup log: %s", errw.String())
	}
}

// TestDaemonWarmRestart boots the daemon with a state dir, warms one
// sketch, restarts the daemon on the same dir, and checks the first
// post-restart repeat query is served from persisted state (cache_hit
// with zero builds).
func TestDaemonWarmRestart(t *testing.T) {
	stateDir := t.TempDir()
	body := `{"graph":"twostars","problem":"p1","budget":2,"tau":3,"engine":"ris","samples":40}`

	boot := func() (addr string, cancel context.CancelFunc, done chan error) {
		ctx, cancelFn := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done = make(chan error, 1)
		var errw bytes.Buffer
		go func() {
			done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-state-dir", stateDir}, &errw, ready)
		}()
		select {
		case addr = <-ready:
		case err := <-done:
			t.Fatalf("daemon exited early: %v (%s)", err, errw.String())
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never became ready")
		}
		return addr, cancelFn, done
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
	sel := func(addr string) server.SolveResponse {
		resp, err := http.Post("http://"+addr+"/v1/select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out server.SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select status %d", resp.StatusCode)
		}
		return out
	}

	addr, cancel, done := boot()
	first := sel(addr)
	if first.CacheHit {
		t.Fatal("very first query reported a cache hit")
	}
	stop(cancel, done)

	addr, cancel, done = boot()
	second := sel(addr)
	if !second.CacheHit {
		t.Error("first post-restart query was not served warm")
	}
	if fmt.Sprint(second.Seeds) != fmt.Sprint(first.Seeds) || second.Total != first.Total {
		t.Errorf("post-restart result differs: %v/%v vs %v/%v", second.Seeds, second.Total, first.Seeds, first.Total)
	}
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Builds != 0 || stats.Cache.DiskHits < 1 {
		t.Errorf("post-restart cache counters: %+v", stats.Cache)
	}
	if stats.StateDir != stateDir {
		t.Errorf("stats state_dir = %q, want %q", stats.StateDir, stateDir)
	}
	stop(cancel, done)
}
