// Command fairtcim solves one (Fair)TCIM instance on a graph file in the
// fairtcim edge-list format and prints a per-group influence report.
//
//	fairtcim -graph net.txt -problem p4 -budget 30 -tau 20 -h log
//	fairtcim -graph net.txt -problem p6 -quota 0.2 -tau 5
//	fairtcim -graph net.txt -problem p1 -tau 10 -meeting 0.3   # IC-M delays
//	fairtcim -graph net.txt -problem p4 -discount 0.8          # discounted utility
//
// Problems: p1 (TCIM-Budget), p2 (TCIM-Cover), p4 (FairTCIM-Budget),
// p6 (FairTCIM-Cover). Use cmd/gengraph to produce input graphs.
//
// Instead of explicit sample budgets (-samples, -rispool), an accuracy
// target can be requested: -epsilon and -delta invoke the (ε,δ) stopping
// rule, which sizes the sample so every group utility the greedy run
// compares is estimated within ε with probability 1−δ.
//
//	fairtcim -graph net.txt -problem p4 -epsilon 0.2 -delta 0.05
//
// With -server, fairtcim becomes a thin client for a running fairtcimd
// daemon: -graph then names a graph registered on the server, the solve
// runs remotely against its warm estimator cache, and the usual report is
// printed from the JSON response. Adding -trace submits the solve as an
// async job (POST /v1/jobs) and streams per-iteration picks live from the
// job's server-sent-event trace before printing the final report.
//
//	fairtcim -server http://localhost:8732 -graph twoblock -problem p4 -engine ris
//	fairtcim -server http://localhost:8732 -graph twoblock -epsilon 0.2 -delta 0.05 -trace
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"fairtcim/internal/cascade"
	"fairtcim/internal/concave"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fairtcim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fairtcim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "input graph (fairtcim edge-list format; required)")
		problem   = fs.String("problem", "p4", "p1 | p2 | p4 | p6")
		budget    = fs.Int("budget", 30, "seed budget B (p1/p4)")
		quota     = fs.Float64("quota", 0.2, "coverage quota Q (p2/p6)")
		tau       = fs.Int("tau", 20, "deadline; -1 means no deadline")
		samples   = fs.Int("samples", 0, "Monte-Carlo worlds for optimization; 0 = default 200")
		hName     = fs.String("h", "log", "concave wrapper for p4: id | log | sqrt | pow<alpha>")
		model     = fs.String("model", "ic", "diffusion model: ic | lt")
		engine    = fs.String("engine", "forward-mc", "estimation engine: forward-mc | ris")
		risPool   = fs.Int("rispool", 0, "RR sets per group for -engine ris; 0 derives from -samples")
		epsilon   = fs.Float64("epsilon", 0, "accuracy target ε in (0,1); with -delta, replaces explicit budgets")
		delta     = fs.Float64("delta", 0, "accuracy failure probability δ in (0,1); used with -epsilon")
		meeting   = fs.Float64("meeting", 0, "IC-M meeting probability (0 disables delays)")
		discount  = fs.Float64("discount", 0, "discount factor gamma in (0,1); 0 disables")
		seed      = fs.Int64("seed", 1, "random seed")
		trace     = fs.Bool("trace", false, "print each greedy pick as it happens (remote: stream the job trace)")
		serverURL = fs.String("server", "", "fairtcimd base URL; solve remotely with -graph naming a server-side graph")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	if (*epsilon > 0) != (*delta > 0) {
		return fmt.Errorf("-epsilon and -delta must be set together")
	}
	var accuracy *fairim.Accuracy
	if *epsilon > 0 {
		if *samples > 0 || *risPool > 0 {
			return fmt.Errorf("-epsilon/-delta replace -samples/-rispool; set one or the other")
		}
		accuracy = &fairim.Accuracy{Epsilon: *epsilon, Delta: *delta}
	}

	if *serverURL != "" {
		if *meeting > 0 || *discount > 0 {
			return fmt.Errorf("-meeting and -discount are not supported in -server mode")
		}
		tau32 := int32(*tau)
		if *tau < 0 {
			tau32 = -1
		}
		req := server.SolveRequest{
			Graph:       *graphPath,
			Problem:     strings.ToLower(*problem),
			Budget:      *budget,
			Quota:       *quota,
			Tau:         &tau32,
			Engine:      *engine,
			Model:       strings.ToLower(*model),
			Samples:     *samples,
			RISPerGroup: *risPool,
			H:           *hName,
			Seed:        *seed,
		}
		if accuracy != nil {
			req.Accuracy = &server.AccuracyRequest{Epsilon: accuracy.Epsilon, Delta: accuracy.Delta}
		}
		if *trace {
			return runRemoteJob(*serverURL, req, stdout)
		}
		return runRemote(*serverURL, req, stdout)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		return err
	}

	cfg := fairim.DefaultConfig(*seed)
	if *tau < 0 {
		cfg.Tau = cascade.NoDeadline
	} else {
		cfg.Tau = int32(*tau)
	}
	switch strings.ToLower(*model) {
	case "ic":
		cfg.Model = cascade.IC
	case "lt":
		cfg.Model = cascade.LT
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	h, err := concave.ByName(*hName)
	if err != nil {
		return err
	}
	cfg.H = h
	cfg.Engine, err = fairim.EngineByName(*engine)
	if err != nil {
		return err
	}
	if *meeting > 0 {
		if *meeting > 1 {
			return fmt.Errorf("meeting probability %v outside (0,1]", *meeting)
		}
		if *meeting < 1 {
			cfg.Delay = cascade.GeometricDelay{M: *meeting}
		}
	}
	cfg.Discount = *discount
	if *trace {
		cfg.OnIteration = func(st fairim.IterationStat) {
			fmt.Fprintf(stdout, "pick seed=%-6d objective=%-10.4f f(S;V)=%.2f\n", st.Seed, st.Objective, st.Total)
		}
	}

	p, err := fairim.ProblemByName(*problem)
	if err != nil {
		return err
	}
	spec := fairim.ProblemSpec{
		Problem:  p,
		Budget:   *budget,
		Quota:    *quota,
		Sampling: fairim.Sampling{Samples: *samples, RISPerGroup: *risPool, Accuracy: accuracy},
		Config:   cfg,
	}
	res, err := fairim.Solve(g, spec)
	if err != nil {
		return err
	}
	printReport(stdout, g, res)
	return nil
}

// postJSON sends one JSON request and decodes the response into out,
// mapping non-2xx bodies onto errors.
func postJSON(baseURL, path string, req any, wantStatus int, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(baseURL, "/")+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return remoteError(resp.StatusCode, resp.Body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// remoteError decodes the daemon's unified error envelope
// {"error":{"code","message"}} into a readable error. The stable code is
// surfaced alongside the human message so scripts grepping CLI output can
// branch on it (e.g. version_conflict vs capacity).
func remoteError(status int, body io.Reader) error {
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.NewDecoder(body).Decode(&e) == nil && e.Error.Message != "" {
		if e.Error.Code != "" {
			err := fmt.Errorf("server: %s: %s (HTTP %d)", e.Error.Code, e.Error.Message, status)
			// Cluster-mode failures get a hint: peer_unreachable means the
			// daemon (or router) exhausted every replica that could own the
			// request — a fleet problem, not a query problem.
			if e.Error.Code == "peer_unreachable" {
				return fmt.Errorf("%w\n  hint: the serving fleet has no reachable owner for this request; check each replica's /healthz and /v1/stats cluster.peers_up", err)
			}
			return err
		}
		return fmt.Errorf("server: %s (HTTP %d)", e.Error.Message, status)
	}
	return fmt.Errorf("server: HTTP %d", status)
}

// runRemote sends one /v1/select request to a fairtcimd daemon and prints
// the report from the response.
func runRemote(baseURL string, req server.SolveRequest, stdout io.Writer) error {
	var out server.SolveResponse
	if err := postJSON(baseURL, "/v1/select", req, http.StatusOK, &out); err != nil {
		return err
	}
	printRemoteReport(stdout, &out)
	return nil
}

// runRemoteJob submits the solve as an async job, streams the per-pick SSE
// trace while it runs, then fetches and prints the final result.
func runRemoteJob(baseURL string, req server.SolveRequest, stdout io.Writer) error {
	var st server.JobStatus
	if err := postJSON(baseURL, "/v1/jobs", req, http.StatusAccepted, &st); err != nil {
		return err
	}
	base := strings.TrimRight(baseURL, "/")
	fmt.Fprintf(stdout, "job %s %s; streaming trace\n", st.ID, st.Status)

	resp, err := http.Get(base + st.TraceURL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp.StatusCode, resp.Body)
	}
	if err := streamTrace(resp.Body, stdout); err != nil {
		return err
	}

	final, err := http.Get(base + st.StatusURL)
	if err != nil {
		return err
	}
	defer final.Body.Close()
	if final.StatusCode != http.StatusOK {
		return remoteError(final.StatusCode, final.Body)
	}
	if err := json.NewDecoder(final.Body).Decode(&st); err != nil {
		return err
	}
	if st.Status != server.JobDone || st.Result == nil {
		return fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)
	}
	printRemoteReport(stdout, st.Result)
	return nil
}

// streamTrace prints "pick" server-sent events until the "done" event.
func streamTrace(body io.Reader, stdout io.Writer) error {
	scanner := bufio.NewScanner(body)
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
				var ev server.TraceEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("bad trace event %q: %v", data, err)
				}
				fmt.Fprintf(stdout, "pick %-3d seed=%-6d objective=%-10.4f f(S;V)=%.2f\n",
					ev.Iteration, ev.Seed, ev.Objective, ev.Total)
			case "done":
				var d struct {
					Status string `json:"status"`
					Error  string `json:"error"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					return fmt.Errorf("bad done event %q: %v", data, err)
				}
				if d.Status != server.JobDone {
					return fmt.Errorf("job %s: %s", d.Status, d.Error)
				}
				return nil
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	return fmt.Errorf("trace stream ended without a done event")
}

func printRemoteReport(stdout io.Writer, out *server.SolveResponse) {
	fmt.Fprintf(stdout, "problem       %s   (graph %s, engine %s, remote)\n", out.Problem, out.Graph, out.Engine)
	fmt.Fprintf(stdout, "seeds (%d)    %v\n", len(out.Seeds), out.Seeds)
	fmt.Fprintf(stdout, "f(S;V)        %.2f   (%.4f normalized)\n", out.Total, out.NormTotal)
	for i := range out.PerGroup {
		fmt.Fprintf(stdout, "group %-2d      f=%.2f   f/|V%d|=%.4f\n", i+1, out.PerGroup[i], i+1, out.NormPerGroup[i])
	}
	fmt.Fprintf(stdout, "disparity     %.4f\n", out.Disparity)
	fmt.Fprintf(stdout, "evaluations   %d\n", out.Evaluations)
	if out.ResolvedRISPerGroup > 0 {
		fmt.Fprintf(stdout, "sampling      %d RR sets per group\n", out.ResolvedRISPerGroup)
	} else if out.ResolvedSamples > 0 {
		fmt.Fprintf(stdout, "sampling      %d worlds\n", out.ResolvedSamples)
	}
	fmt.Fprintf(stdout, "cache         hit=%v sample_ms=%.1f solve_ms=%.1f\n", out.CacheHit, out.SampleMS, out.SolveMS)
	if out.EffectiveParallelism > 0 {
		fmt.Fprintf(stdout, "parallelism   %d (occupancy-adapted by the server)\n", out.EffectiveParallelism)
	}
}

func printReport(w io.Writer, g *graph.Graph, res *fairim.Result) {
	fmt.Fprintf(w, "problem       %s\n", res.Problem)
	fmt.Fprintf(w, "seeds (%d)    %v\n", len(res.Seeds), res.Seeds)
	fmt.Fprintf(w, "f(S;V)        %.2f   (%.4f of %d nodes)\n", res.Total, res.NormTotal, g.N())
	for i, u := range res.PerGroup {
		fmt.Fprintf(w, "group %-2d      f=%.2f   f/|V%d|=%.4f   (|V%d|=%d)\n",
			i+1, u, i+1, res.NormPerGroup[i], i+1, g.GroupSize(i))
	}
	fmt.Fprintf(w, "disparity     %.4f\n", res.Disparity)
	fmt.Fprintf(w, "evaluations   %d\n", res.Evaluations)
	if res.RISPerGroup > 0 {
		fmt.Fprintf(w, "sampling      %d RR sets per group\n", res.RISPerGroup)
	} else {
		fmt.Fprintf(w, "sampling      %d worlds\n", res.Samples)
	}
}
