package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"fairtcim/internal/cascade"
	"fairtcim/internal/cluster"
	"fairtcim/internal/concave"
	"fairtcim/internal/estimator"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
)

// Config parametrizes a Server. The zero value is usable with a non-nil
// Registry: 32 cached samples, GOMAXPROCS-bounded worker pool, 10s queue
// timeout, 64 active jobs.
type Config struct {
	Registry *Registry
	// CacheSize bounds the number of warm samples kept (LRU); <= 0
	// means 32.
	CacheSize int
	// MaxConcurrent bounds solves in flight; excess requests queue.
	// <= 0 means GOMAXPROCS.
	MaxConcurrent int
	// QueueTimeout is how long a synchronous request waits for a worker
	// slot before being shed with 503; <= 0 means 10s. Async jobs are not
	// subject to it — they wait for a slot as long as they must.
	QueueTimeout time.Duration
	// SolverParallelism is the per-request worker count for sampling and
	// first-pass gains; <= 0 means GOMAXPROCS. Lower it when
	// MaxConcurrent > 1 so concurrent solves do not oversubscribe.
	SolverParallelism int
	// MaxJobs bounds jobs queued or running at once; submissions beyond
	// it are shed with 503. <= 0 means 64.
	MaxJobs int
	// JobRetention bounds how many finished jobs are kept (and, with a
	// state dir, journaled) for GET /v1/jobs history; <= 0 means 256.
	JobRetention int
	// StateDir, when non-empty, enables warm-restart persistence rooted
	// at this directory: built samples are written through to
	// StateDir/sketches and reloaded on memory misses, and finished jobs
	// are journaled to StateDir/jobs.jsonl and restored at startup. Empty
	// keeps everything in-memory (the previous behavior).
	StateDir string
	// StateMaxBytes bounds the total size of StateDir/sketches: once the
	// manifest exceeds it, the least-recently-used sketch files are
	// deleted. <= 0 means unbounded.
	StateMaxBytes int64
	// StateMaxAge drops persisted sketches not loaded or written for this
	// long — version-churned files from updated graphs age out instead of
	// accumulating forever. <= 0 means unbounded.
	StateMaxAge time.Duration
	// RefreshThreshold is the dirty fraction of an RR pool above which a
	// graph update triggers a full sketch rebuild instead of an
	// incremental refresh; <= 0 means ris.DefaultRefreshThreshold.
	RefreshThreshold float64
	// CoalesceWindow, when positive, batches concurrent POST /v1/select
	// traffic: the first request for a graph waits this long for
	// compatible companions, then all of them share one sketch pass and
	// one CELF run (see planner.go). Zero solves each request at once, as
	// a batch of one. POST /v1/select/batch coalesces regardless of this
	// setting.
	CoalesceWindow time.Duration
	// Peers lists the other replicas' base URLs; non-empty enables
	// peer-aware sharded serving (consistent-hash routing, proxying,
	// cross-replica sketch exchange, update fanout) and requires SelfURL.
	Peers []string
	// SelfURL is this replica's advertised base URL — the exact string
	// the peers carry in their own Peers lists, so every replica's ring
	// has identical members.
	SelfURL string
	// ProbeInterval is the peer health-probe period; <= 0 means 2s.
	// Probes run only while RunClusterProbes is active.
	ProbeInterval time.Duration
	// ClusterClient issues cross-replica requests (probes, proxies,
	// sketch fetches); nil means a client with a 30s timeout.
	ClusterClient *http.Client
	// RequestLog, when non-nil, receives one JSON line per completed
	// request (method, route pattern, status, latency, bytes) — the
	// structured access log behind fairtcimd -request-log.
	RequestLog io.Writer
}

// Server is the HTTP serving layer; see the package comment for the
// request flow. Construct with New, mount via Handler.
type Server struct {
	reg          *Registry
	cache        *Cache
	sem          chan struct{}
	queueTimeout time.Duration
	parallelism  int
	mux          *http.ServeMux
	jobs         *jobStore
	stateDir     string        // empty = in-memory only
	coalesce     *coalescer    // nil unless Config.CoalesceWindow > 0
	cluster      *clusterState // nil unless Config.Peers is set
	fpm          *fpMemo       // graph fingerprints for sketch framing (disk tier and cluster)
	metrics      *httpMetrics  // per-route latency/request tallies + access log

	queued atomic.Int64 // requests currently waiting for a worker slot
	shed   atomic.Int64 // requests turned away at capacity

	// Planner counters (see planner.go): cumulative tallies over every
	// batched solve — explicit /v1/select/batch plus coalescing-window
	// batches.
	plannerBatches    atomic.Int64
	plannerGroups     atomic.Int64
	plannerSingletons atomic.Int64
	plannerCoalesced  atomic.Int64
}

// New builds a Server over cfg.Registry.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("server: Config.Registry is required")
	}
	workers := cfg.MaxConcurrent
	if workers <= 0 {
		workers = defaultWorkers()
	}
	timeout := cfg.QueueTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	retention := cfg.JobRetention
	if retention <= 0 {
		retention = defaultJobRetention
	}
	// One fingerprint memo frames sketches for the disk tier and the
	// cluster alike.
	fpm := &fpMemo{}
	// Warm-restart persistence: attach the sketch disk tier and replay
	// the finished-job journal. A missing state dir is created; anything
	// unusable inside it degrades per artifact (rejected files are
	// counted, not fatal), but an unusable dir itself is a config error.
	var disk *diskStore
	var journal *jobJournal
	var restored []jobRecord
	if cfg.StateDir != "" {
		var err error
		if disk, err = newDiskStore(filepath.Join(cfg.StateDir, "sketches"), cfg.StateMaxBytes, cfg.StateMaxAge, fpm); err != nil {
			return nil, err
		}
		if journal, restored, err = openJobJournal(filepath.Join(cfg.StateDir, "jobs.jsonl"), retention); err != nil {
			return nil, err
		}
	}
	s := &Server{
		reg:          cfg.Registry,
		cache:        NewCache(cfg.CacheSize),
		sem:          make(chan struct{}, workers),
		queueTimeout: timeout,
		parallelism:  cfg.SolverParallelism,
		mux:          http.NewServeMux(),
		jobs:         newJobStore(cfg.MaxJobs, retention, journal),
		stateDir:     cfg.StateDir,
		fpm:          fpm,
		metrics:      newHTTPMetrics(cfg.RequestLog),
	}
	s.cache.disk = disk
	s.cache.history = cfg.Registry
	s.cache.refreshThreshold = cfg.RefreshThreshold
	s.jobs.restore(restored)
	if cfg.CoalesceWindow > 0 {
		s.coalesce = newCoalescer(s, cfg.CoalesceWindow)
	}
	if len(cfg.Peers) > 0 {
		if cfg.SelfURL == "" {
			return nil, fmt.Errorf("server: Config.Peers requires SelfURL (this replica's advertised base URL)")
		}
		s.cluster = newClusterState(cluster.New(cluster.Config{
			Self:          cfg.SelfURL,
			Peers:         cfg.Peers,
			ProbeInterval: cfg.ProbeInterval,
			Client:        cfg.ClusterClient,
		}), s.fpm)
		s.cache.peers = s.cluster
	}
	s.mux.HandleFunc("POST /v1/select", s.handleSelect)
	s.mux.HandleFunc("POST /v1/select/batch", s.handleSelectBatch)
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGraphGet)
	s.mux.HandleFunc("POST /v1/graphs/{name}/updates", s.handleGraphUpdate)
	// The sketch transfer endpoint is registered unconditionally: a solo
	// daemon can warm a newly added replica without being reconfigured.
	s.mux.HandleFunc("GET /v1/sketches/{key}", s.handleSketchGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Handler returns the root handler serving all endpoints, instrumented
// with the per-route metrics middleware (and the access log when
// configured).
func (s *Server) Handler() http.Handler { return s.metrics.wrap(s.mux) }

// CacheStats exposes sketch-cache counters (tests, /healthz, /v1/stats).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// WaitFlushes blocks until every background sketch write-through has
// reached disk. The daemon calls it on shutdown so a warm restart finds
// everything it built; tests call it before asserting disk state.
func (s *Server) WaitFlushes() { s.cache.WaitFlushes() }

// AccuracyRequest is the wire form of an (ε,δ) estimation target.
type AccuracyRequest struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// SolveRequest is the body of POST /v1/select and POST /v1/jobs. It is
// the wire form of fairim.ProblemSpec: zero/absent fields take the
// documented defaults, which match the fairtcim CLI. Budgets come either
// from explicit counts (samples, ris_per_group) or from an accuracy
// target; setting both is an error.
type SolveRequest struct {
	Graph   string  `json:"graph"`             // registry name (required)
	Problem string  `json:"problem,omitempty"` // p1 | p2 | p4 | p6; default p4
	Budget  int     `json:"budget,omitempty"`  // seed budget B (p1/p4); default 30
	Quota   float64 `json:"quota,omitempty"`   // coverage quota Q (p2/p6); default 0.2
	Tau     *int32  `json:"tau,omitempty"`     // deadline; -1 = none; default 20
	Engine  string  `json:"engine,omitempty"`  // forward-mc | ris; default forward-mc
	Model   string  `json:"model,omitempty"`   // ic | lt; default ic
	Samples int     `json:"samples,omitempty"` // MC worlds; default 200
	// RISPerGroup is the RR-pool size per group for engine "ris";
	// 0 derives 20·samples. Every sample count the request draws —
	// samples, this pool, eval_samples — is capped at
	// estimator.MaxSamples (2^20).
	RISPerGroup int `json:"ris_per_group,omitempty"`
	// Accuracy, if set, replaces the explicit budgets: the server derives
	// the pool size from the (ε,δ) stopping rule (IMM-style doubling for
	// ris, a Hoeffding world count for forward-mc).
	Accuracy *AccuracyRequest `json:"accuracy,omitempty"`
	H        string           `json:"h,omitempty"`    // p4 wrapper: id | log | sqrt | pow<a>; default log
	Seed     int64            `json:"seed,omitempty"` // sampling seed; default 1
	// Eval picks the final-report estimator: "fresh" re-estimates on
	// fresh Monte-Carlo worlds (default, unbiased), "sample" reports from
	// the cached optimization sample (fastest, slightly optimistic).
	Eval        string `json:"eval,omitempty"`
	EvalSamples int    `json:"eval_samples,omitempty"` // fresh worlds for eval "fresh"; default samples
	MaxSeeds    int    `json:"max_seeds,omitempty"`    // cover-problem safety bound; default |V|
	// Trace includes the per-iteration picks in a synchronous response;
	// jobs always record a trace for GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// EstimateRequest is the body of POST /v1/estimate: evaluate the spread
// of a caller-supplied seed set. Eval defaults to "sample", reusing the
// cached sketch (unbiased here — the seeds were not chosen on it).
type EstimateRequest struct {
	Graph       string           `json:"graph"`
	Seeds       []graph.NodeID   `json:"seeds"`
	Tau         *int32           `json:"tau,omitempty"`
	Engine      string           `json:"engine,omitempty"`
	Model       string           `json:"model,omitempty"`
	Samples     int              `json:"samples,omitempty"`
	RISPerGroup int              `json:"ris_per_group,omitempty"`
	Accuracy    *AccuracyRequest `json:"accuracy,omitempty"`
	Seed        int64            `json:"seed,omitempty"`
	Eval        string           `json:"eval,omitempty"` // "sample" (default) | "fresh"
}

// UtilityReport is the shared result payload of select and estimate.
type UtilityReport struct {
	Seeds        []graph.NodeID `json:"seeds"`
	Total        float64        `json:"total"`
	NormTotal    float64        `json:"norm_total"`
	PerGroup     []float64      `json:"per_group"`
	NormPerGroup []float64      `json:"norm_per_group"`
	Disparity    float64        `json:"disparity"`
}

// TraceEvent is one greedy pick, as carried in synchronous trace arrays
// and streamed as an SSE "pick" event on /v1/jobs/{id}/trace.
type TraceEvent struct {
	Iteration int          `json:"iteration"` // 1-based pick index
	Seed      graph.NodeID `json:"seed"`
	Objective float64      `json:"objective"`
	Total     float64      `json:"total"`
	NormGroup []float64    `json:"norm_group"`
}

// SolveResponse is the body of a successful /v1/select and the result
// embedded in a finished job.
type SolveResponse struct {
	Problem string `json:"problem"`
	Graph   string `json:"graph"`
	Engine  string `json:"engine"`
	UtilityReport
	Evaluations int  `json:"evaluations"`
	CacheHit    bool `json:"cache_hit"`
	// GraphVersion is the registry version of the graph snapshot this
	// solve ran on; it moves when POST /v1/graphs/{name}/updates applies a
	// delta batch.
	GraphVersion uint64 `json:"graph_version,omitempty"`
	// RRRefreshed/RRRetained report how this request's RIS sketch was
	// produced after a graph update: RRRefreshed RR sets were resampled
	// against the new snapshot, RRRetained carried over from the previous
	// version's sketch. Both zero for cold builds, cache hits echo the
	// builder's split.
	RRRefreshed int `json:"rr_refreshed,omitempty"`
	RRRetained  int `json:"rr_retained,omitempty"`
	// WarmSeeds counts greedy picks replayed from the memoized seed
	// prefix of an earlier solve instead of re-evaluated — budget-k
	// repeats and extensions of a solved problem skip that much work.
	WarmSeeds int     `json:"warm_seeds,omitempty"`
	SampleMS  float64 `json:"sample_ms"` // sketch build cost (paid once per key)
	// SolveMS is the solve pass inside the worker slot: estimator
	// construction, greedy/CELF and the final report. A batch item reports
	// its whole batch's pass.
	SolveMS float64 `json:"solve_ms"`
	// Resolved sampling budgets the solve actually used — how large the
	// accuracy-derived pool came out when the request carried an (ε,δ)
	// target instead of explicit counts.
	ResolvedSamples     int          `json:"resolved_samples,omitempty"`
	ResolvedRISPerGroup int          `json:"resolved_ris_per_group,omitempty"`
	Trace               []TraceEvent `json:"trace,omitempty"`
	// EffectiveParallelism is the per-solve worker count this request
	// actually got after occupancy-adaptive scaling (see
	// Server.effectiveParallelism). Sampling and solving are
	// deterministic for fixed inputs regardless of worker count, so this
	// affects speed only, never the answer.
	EffectiveParallelism int `json:"effective_parallelism,omitempty"`
}

// EstimateResponse is the body of a successful /v1/estimate.
type EstimateResponse struct {
	Graph  string `json:"graph"`
	Engine string `json:"engine"`
	UtilityReport
	CacheHit             bool    `json:"cache_hit"`
	GraphVersion         uint64  `json:"graph_version,omitempty"`
	RRRefreshed          int     `json:"rr_refreshed,omitempty"`
	RRRetained           int     `json:"rr_retained,omitempty"`
	SampleMS             float64 `json:"sample_ms"`
	SolveMS              float64 `json:"solve_ms"`
	ResolvedSamples      int     `json:"resolved_samples,omitempty"`
	ResolvedRISPerGroup  int     `json:"resolved_ris_per_group,omitempty"`
	EffectiveParallelism int     `json:"effective_parallelism,omitempty"`
}

// acquire takes a worker slot, queueing up to the configured timeout.
func (s *Server) acquire(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.queueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-timer.C:
		s.shed.Add(1)
		return false
	case <-ctx.Done():
		// The client gave up while queued — not a capacity refusal, so
		// it does not count toward shed.
		return false
	}
}

func (s *Server) release() { <-s.sem }

// effectiveParallelism adapts the per-solve worker count to worker-pool
// occupancy: a solve alone on the pool gets the full configured
// parallelism P; with A of C slots busy it gets ceil(P·(C-A+1)/C),
// floored at 1 — so concurrent solves share the CPUs roughly evenly
// instead of each spawning P workers and oversubscribing A·P-fold.
// Callers invoke it while already holding their own slot (A counts
// them). Sampling and greedy evaluation are deterministic for fixed
// arguments regardless of worker count (see internal/ris), so the
// scaling changes latency, never answers or cache keys.
func (s *Server) effectiveParallelism() int {
	p := s.parallelism
	if p <= 0 {
		p = defaultWorkers()
	}
	capacity, active := cap(s.sem), len(s.sem)
	if active <= 1 || capacity <= 1 {
		return p
	}
	if active > capacity {
		active = capacity
	}
	eff := (p*(capacity-active+1) + capacity - 1) / capacity
	if eff < 1 {
		return 1
	}
	return eff
}

// blockingGate is the worker gate async jobs use: unlike the synchronous
// path it has no queue timeout — a job occupies no HTTP worker while it
// waits, so it simply queues until a slot frees. ctx is the job's
// cancellation context (DELETE /v1/jobs/{id}): it is checked before
// taking a free slot so a cancelled job never starts a solve phase, and a
// cancelled wait is not a capacity shed.
type blockingGate struct{ s *Server }

func (b blockingGate) acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case b.s.sem <- struct{}{}:
		return true
	default:
	}
	b.s.queued.Add(1)
	defer b.s.queued.Add(-1)
	select {
	case b.s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (b blockingGate) release() { b.s.release() }

// decodeCommon resolves the request fields shared by solve and estimate
// into a fairim.ProblemSpec, applying the documented defaults and
// rejecting anything malformed before a sample build or worker slot is
// paid for.
func decodeCommon(graphName, engineName, modelName string, tau *int32, samples, risPool int, acc *AccuracyRequest, seed int64, eval, defaultEval string) (fairim.ProblemSpec, error) {
	var spec fairim.ProblemSpec
	if graphName == "" {
		return spec, fmt.Errorf("missing \"graph\"")
	}
	var err error
	if spec.Engine, err = fairim.EngineByName(engineName); err != nil {
		return spec, err
	}
	switch strings.ToLower(modelName) {
	case "", "ic":
		spec.Model = cascade.IC
	case "lt":
		spec.Model = cascade.LT
	default:
		return spec, fmt.Errorf("unknown model %q (want ic or lt)", modelName)
	}
	spec.Tau = 20
	if tau != nil {
		switch {
		case *tau < -1:
			return spec, fmt.Errorf("negative deadline %d", *tau)
		case *tau == -1:
			spec.Tau = cascade.NoDeadline
		default:
			spec.Tau = *tau
		}
	}
	if err := checkCount("samples", samples); err != nil {
		return spec, err
	}
	if err := checkCount("ris_per_group", risPool); err != nil {
		return spec, err
	}
	if acc != nil {
		if samples > 0 || risPool > 0 {
			return spec, fmt.Errorf("request sets both explicit budgets and an accuracy target; choose one")
		}
		if acc.Epsilon <= 0 || acc.Epsilon >= 1 {
			return spec, fmt.Errorf("accuracy epsilon %v outside (0,1)", acc.Epsilon)
		}
		if acc.Delta <= 0 || acc.Delta >= 1 {
			return spec, fmt.Errorf("accuracy delta %v outside (0,1)", acc.Delta)
		}
		spec.Sampling.Accuracy = &fairim.Accuracy{Epsilon: acc.Epsilon, Delta: acc.Delta}
	} else {
		// Materialize the documented defaults so the cache key and the
		// solver agree on the effective budgets.
		spec.Sampling = fairim.Sampling{Samples: samples, RISPerGroup: risPool}
		spec.Sampling.Samples, spec.Sampling.RISPerGroup = spec.Counts()
		// samples met the cap, but its default RR pool, 20·samples, may
		// not.
		if spec.Engine == fairim.EngineRIS && spec.Sampling.RISPerGroup > estimator.MaxSamples {
			return spec, fmt.Errorf("ris_per_group defaults to 20·samples = %d, above the cap of %d; set ris_per_group", spec.Sampling.RISPerGroup, estimator.MaxSamples)
		}
	}
	spec.Seed = seed
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	switch strings.ToLower(eval) {
	case "":
		spec.ReportOnSample = defaultEval == "sample"
	case "sample":
		spec.ReportOnSample = true
	case "fresh":
		spec.ReportOnSample = false
	default:
		return spec, fmt.Errorf("unknown eval mode %q (want fresh or sample)", eval)
	}
	// Reject engine/model combinations up front, before any sample is
	// built or worker slot taken (fairim would also catch this, but only
	// after the expensive build).
	if spec.Engine == fairim.EngineRIS && spec.Model != cascade.IC {
		return spec, fmt.Errorf("the ris engine supports only the ic model")
	}
	return spec, nil
}

// checkCount refuses a negative sample count, and one above the cap every
// engine samples within: a request may not ask for a sample that would
// take the daemon's memory, however long it is willing to wait.
func checkCount(field string, n int) error {
	if n < 0 {
		return fmt.Errorf("negative %s %d", field, n)
	}
	if n > estimator.MaxSamples {
		return fmt.Errorf("%s %d above the cap of %d", field, n, estimator.MaxSamples)
	}
	return nil
}

// toSpec decodes the full solve request into a fairim.ProblemSpec.
func (req SolveRequest) toSpec() (fairim.ProblemSpec, error) {
	spec, err := decodeCommon(req.Graph, req.Engine, req.Model, req.Tau, req.Samples, req.RISPerGroup, req.Accuracy, req.Seed, req.Eval, "fresh")
	if err != nil {
		return spec, err
	}
	name := req.Problem
	if name == "" {
		name = "p4"
	}
	if spec.Problem, err = fairim.ProblemByName(name); err != nil {
		return spec, err
	}
	spec.Budget = req.Budget
	if spec.Budget == 0 {
		spec.Budget = 30
	}
	spec.Quota = req.Quota
	if spec.Quota == 0 {
		spec.Quota = 0.2
	}
	if spec.Problem.IsBudget() {
		if spec.Budget <= 0 {
			return spec, fmt.Errorf("budget must be positive, got %d", spec.Budget)
		}
	} else if spec.Quota <= 0 || spec.Quota > 1 {
		return spec, fmt.Errorf("quota %v outside (0,1]", spec.Quota)
	}
	if err := checkCount("eval_samples", req.EvalSamples); err != nil {
		return spec, err
	}
	spec.EvalSamples = req.EvalSamples
	if req.MaxSeeds < 0 {
		return spec, fmt.Errorf("negative max_seeds %d", req.MaxSeeds)
	}
	spec.MaxSeeds = req.MaxSeeds
	hName := req.H
	if hName == "" {
		hName = "log"
	}
	if spec.H, err = concave.ByName(hName); err != nil {
		return spec, err
	}
	spec.Trace = req.Trace
	return spec, nil
}

// getGraph resolves a registry name to its current snapshot and version,
// mapping unknown names to 404. The (snapshot, version) pair is read
// atomically, so a concurrent update cannot hand a request the new
// version number with the old adjacency or vice versa.
func (s *Server) getGraph(w http.ResponseWriter, name string) (*graph.Graph, uint64, bool) {
	g, version, err := s.reg.GetVersioned(name)
	if err != nil {
		status, code := http.StatusInternalServerError, CodeInternal
		if errors.Is(err, ErrUnknownGraph) {
			status, code = http.StatusNotFound, CodeGraphNotFound
		}
		writeError(w, status, code, "%v", err)
		return nil, 0, false
	}
	return g, version, true
}

func traceEvents(trace []fairim.IterationStat) []TraceEvent {
	if trace == nil {
		return nil
	}
	out := make([]TraceEvent, len(trace))
	for i, st := range trace {
		out[i] = TraceEvent{
			Iteration: i + 1,
			Seed:      st.Seed,
			Objective: st.Objective,
			Total:     st.Total,
			NormGroup: st.NormGroup,
		}
	}
	return out
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req SolveRequest
	if !decodeStrict(w, body, &req) {
		return
	}
	spec, err := req.toSpec()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSpec, "%v", err)
		return
	}
	// Route to the key's owner first: the owner's cache is where this
	// key's sketch lives (or should start living). The owner runs its own
	// coalescing window, so proxied traffic still batches there.
	if cands := s.routeCandidates(r, routeKeyFor(req.Graph, spec)); cands != nil {
		if s.proxyWithFailover(w, r, cands, "/v1/select", body, nil) {
			return
		}
	}
	var resp *SolveResponse
	if s.coalesce != nil {
		// The coalescer resolves the graph itself when the window closes,
		// so every request in the window sees one consistent snapshot.
		resp, err = s.coalesce.submit(r.Context(), req.Graph, spec)
	} else {
		g, version, ok := s.getGraph(w, req.Graph)
		if !ok {
			return
		}
		resp, err = s.solveOne(r.Context(), serverGate{s}, req.Graph, version, g, spec)
	}
	if err != nil {
		writeSolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// serverGate is the synchronous-request worker gate: queue up to the
// configured timeout, then shed. The same timeout bounds how long a
// synchronous request waits for a singleflight build it joined to
// start (joinBound) — without it, joining a build reserved by a queued
// async job would pin the request far past its queueing contract.
type serverGate struct{ s *Server }

func (g serverGate) acquire(ctx context.Context) bool { return g.s.acquire(ctx) }
func (g serverGate) release()                         { g.s.release() }
func (g serverGate) joinBound() time.Duration         { return g.s.queueTimeout }

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req EstimateRequest
	if !decodeStrict(w, body, &req) {
		return
	}
	spec, err := decodeCommon(req.Graph, req.Engine, req.Model, req.Tau, req.Samples, req.RISPerGroup, req.Accuracy, req.Seed, req.Eval, "sample")
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSpec, "%v", err)
		return
	}
	if len(req.Seeds) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadSpec, "missing \"seeds\"")
		return
	}
	g, version, ok := s.getGraph(w, req.Graph)
	if !ok {
		return
	}
	// Range-check seeds before any sample build or worker slot is paid
	// for (fairim would reject them, but only after the build).
	for _, v := range req.Seeds {
		if v < 0 || int(v) >= g.N() {
			writeError(w, http.StatusBadRequest, CodeBadSpec, "seed %d out of range [0,%d)", v, g.N())
			return
		}
	}
	// Accuracy-sized estimation unions over this one fixed seed set.
	spec.Budget = len(req.Seeds)

	var hit bool
	var buildMS float64
	var smp *sample
	if spec.ReportOnSample {
		smp, hit, buildMS, err = s.cache.SampleFor(r.Context(), sampleKeyFor(req.Graph, version, g, spec, true), g, s.parallelism, serverGate{s})
		if err != nil {
			writeSolveError(w, err)
			return
		}
	}

	if !s.acquire(r.Context()) {
		writeError(w, http.StatusServiceUnavailable, CodeCapacity, "server at capacity; retry later")
		return
	}
	defer s.release()
	if smp != nil {
		est, err := smp.newEstimator(spec.Tau)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadSpec, "%v", err)
			return
		}
		spec.Estimator = est
	}
	effPar := s.effectiveParallelism()
	spec.Parallelism = effPar

	start := time.Now()
	res, err := fairim.Evaluate(g, req.Seeds, spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadSpec, "%v", err)
		return
	}

	resp := EstimateResponse{
		Graph:                req.Graph,
		Engine:               spec.Engine.String(),
		UtilityReport:        reportOf(res),
		CacheHit:             hit,
		GraphVersion:         version,
		SampleMS:             buildMS,
		SolveMS:              float64(time.Since(start).Microseconds()) / 1000,
		ResolvedSamples:      res.Samples,
		ResolvedRISPerGroup:  res.RISPerGroup,
		EffectiveParallelism: effPar,
	}
	if smp != nil {
		resp.RRRefreshed = smp.rrRefreshed
		resp.RRRetained = smp.rrRetained
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleGraphs is GET /v1/graphs: structured per-graph objects.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Graphs []GraphInfo `json:"graphs"`
	}{Graphs: s.reg.Info()})
}

// handleGraphGet is GET /v1/graphs/{name}: one graph's registry row.
// Introspection never forces a load — an unloaded graph reports
// loaded=false with no size fields.
func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := s.reg.InfoFor(name)
	if !ok {
		writeError(w, http.StatusNotFound, CodeGraphNotFound, "server: %v %q", ErrUnknownGraph, name)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string     `json:"status"`
		Graphs []string   `json:"graphs"`
		Cache  CacheStats `json:"cache"`
	}{Status: "ok", Graphs: s.reg.Names(), Cache: s.cache.Stats()})
}

// WorkerStats snapshots the worker pool: slot capacity, slots in use,
// requests waiting for a slot, and requests shed at capacity since start.
type WorkerStats struct {
	Capacity int   `json:"capacity"`
	Active   int   `json:"active"`
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`
}

// StatsResponse is the body of GET /v1/stats — the observability roll-up
// of cache effectiveness, worker-pool pressure and job lifecycle counts.
// StateDir names the warm-restart persistence root (absent when the
// daemon runs purely in-memory); JournalErrors counts finished jobs whose
// journal append failed — non-zero means history would not survive a
// restart — and JournalDropped the torn, foreign or over-long journal
// lines the replay at startup skipped.
type StatsResponse struct {
	Cache   CacheStats   `json:"cache"`
	Workers WorkerStats  `json:"workers"`
	Jobs    JobStats     `json:"jobs"`
	Planner PlannerStats `json:"planner"`
	// Cluster carries the cluster_* counter family (peer fetches,
	// proxied requests, failovers, fleet liveness); absent unless the
	// replica runs with peers.
	Cluster        *cluster.Stats `json:"cluster,omitempty"`
	StateDir       string         `json:"state_dir,omitempty"`
	JournalErrors  int64          `json:"journal_errors,omitempty"`
	JournalDropped int64          `json:"journal_dropped,omitempty"`
}

// Stats snapshots all server counters (also served at GET /v1/stats).
func (s *Server) Stats() StatsResponse {
	return StatsResponse{
		Cluster: s.ClusterStats(),
		Cache:   s.cache.Stats(),
		Workers: WorkerStats{
			Capacity: cap(s.sem),
			Active:   len(s.sem),
			Queued:   s.queued.Load(),
			Shed:     s.shed.Load(),
		},
		Jobs: s.jobs.stats(),
		Planner: PlannerStats{
			Batches:    s.plannerBatches.Load(),
			Groups:     s.plannerGroups.Load(),
			Singletons: s.plannerSingletons.Load(),
			Coalesced:  s.plannerCoalesced.Load(),
		},
		StateDir:       s.stateDir,
		JournalErrors:  s.jobs.journalErrors.Load(),
		JournalDropped: s.jobs.journal.droppedLines(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// reportOf projects a fairim.Result onto the wire payload.
func reportOf(res *fairim.Result) UtilityReport {
	seeds := res.Seeds
	if seeds == nil {
		seeds = []graph.NodeID{}
	}
	return UtilityReport{
		Seeds:        seeds,
		Total:        res.Total,
		NormTotal:    res.NormTotal,
		PerGroup:     res.PerGroup,
		NormPerGroup: res.NormPerGroup,
		Disparity:    res.Disparity,
	}
}
