package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
)

// The async job API: POST /v1/jobs submits a solve and returns
// immediately with a job id; GET /v1/jobs/{id} reports status and, once
// finished, the result; GET /v1/jobs/{id}/trace streams one server-sent
// "pick" event per greedy iteration while the solve runs; DELETE
// /v1/jobs/{id} cancels a queued or running job (a running solve aborts
// cooperatively at the next greedy pick boundary). Long solves on large
// graphs therefore hold a worker slot only while actually solving — never
// an HTTP connection of the submitter. With a state dir, finished jobs
// are journaled so history survives restarts.

// Job states.
const (
	JobQueued   = "queued"   // accepted, waiting for a worker slot
	JobRunning  = "running"  // solving
	JobDone     = "done"     // finished successfully; result available
	JobFailed   = "failed"   // finished with an error
	JobCanceled = "canceled" // canceled via DELETE before finishing
)

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// defaultJobRetention bounds how many finished jobs are kept for status
// polling when Config.JobRetention is unset; the oldest finished jobs are
// evicted first (counters survive eviction).
const defaultJobRetention = 256

// job is one submitted solve. All mutable state is guarded by mu; notify
// is closed and replaced on every change so any number of trace streams
// can wait for progress without polling.
type job struct {
	id      string
	graphN  string
	problem string
	created time.Time

	mu       sync.Mutex
	state    string
	started  time.Time
	finished time.Time
	result   *SolveResponse
	errMsg   string
	trace    []TraceEvent
	notify   chan struct{}
	// cancel aborts the solve context; set by arm before the job
	// goroutine starts. cancelReq records that DELETE asked for the
	// cancellation, distinguishing it from other context failures.
	cancel    context.CancelFunc
	cancelReq bool
	// restoredPicks carries the pick count of a journal-restored job,
	// whose trace buffer is gone, and resultCut that its journal record
	// was written without the result (jobRecord.ResultCut).
	restoredPicks int
	resultCut     bool
	// final is the terminal record settle decided, set before it is
	// journaled and published; record reports it from then on.
	final *jobRecord
}

// signalLocked wakes every waiter; callers hold mu.
func (j *job) signalLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendPick records one greedy pick and wakes trace streams. It is the
// fairim.Config.OnIteration callback, called synchronously from the
// solver goroutine.
func (j *job) appendPick(st fairim.IterationStat) {
	j.mu.Lock()
	j.trace = append(j.trace, TraceEvent{
		Iteration: len(j.trace) + 1,
		Seed:      st.Seed,
		Objective: st.Objective,
		Total:     st.Total,
		NormGroup: st.NormGroup,
	})
	j.signalLocked()
	j.mu.Unlock()
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.signalLocked()
	j.mu.Unlock()
}

// settle decides the job's terminal record without publishing it. A
// cancellation-shaped error after a DELETE request lands in JobCanceled;
// any other error is a genuine failure even if a cancel raced in behind
// it. From here on record returns the decided record, so a journal
// compaction running before publish keeps the job.
func (j *job) settle(resp *SolveResponse, err error) jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := j.recordLocked()
	rec.Finished = time.Now()
	switch {
	case err == nil:
		rec.Status, rec.Result = JobDone, resp
	case j.cancelReq && (errors.Is(err, fairim.ErrCanceled) || errors.Is(err, context.Canceled)):
		rec.Status, rec.Error = JobCanceled, "canceled"
	default:
		rec.Status, rec.Error = JobFailed, err.Error()
	}
	j.final = &rec
	return rec
}

// publish moves the job to the terminal state settle decided and wakes
// trace streams and pollers.
func (j *job) publish() {
	j.mu.Lock()
	f := j.final
	j.state, j.result, j.errMsg, j.finished = f.Status, f.Result, f.Error, f.Finished
	j.signalLocked()
	j.mu.Unlock()
}

// arm installs the solve-context cancel function. If a DELETE raced in
// before arming, the context is cancelled immediately.
func (j *job) arm(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	canceled := j.cancelReq
	j.mu.Unlock()
	if canceled {
		cancel()
	}
}

// requestCancel marks the job canceled-on-request and fires its solve
// context. It reports false when the job had already finished.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return false
	}
	j.cancelReq = true
	cancel := j.cancel
	j.signalLocked()
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// record snapshots the job for the journal.
func (j *job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		return *j.final
	}
	return j.recordLocked()
}

func (j *job) recordLocked() jobRecord {
	picks := len(j.trace)
	if picks == 0 {
		picks = j.restoredPicks
	}
	return jobRecord{
		ID:        j.id,
		Graph:     j.graphN,
		Problem:   j.problem,
		Status:    j.state,
		Error:     j.errMsg,
		Picks:     picks,
		Result:    j.result,
		ResultCut: j.resultCut,
		Created:   j.created,
		Finished:  j.finished,
	}
}

// JobStatus is the wire form of a job, returned by POST /v1/jobs (202)
// and GET /v1/jobs/{id}.
type JobStatus struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Graph   string `json:"graph"`
	Problem string `json:"problem"`
	// Picks counts greedy iterations completed so far — live progress for
	// pollers who do not consume the SSE trace.
	Picks  int            `json:"picks"`
	Error  string         `json:"error,omitempty"`
	Result *SolveResponse `json:"result,omitempty"`
	// ResultCut reports a finished job restored from the journal without
	// its result, whose record would have outgrown the journal's line
	// bound (16 MiB, a few million seeds); Result is then absent.
	ResultCut bool   `json:"result_cut,omitempty"`
	StatusURL string `json:"status_url"`
	TraceURL  string `json:"trace_url"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	picks := len(j.trace)
	if picks == 0 {
		picks = j.restoredPicks
	}
	return JobStatus{
		ID:        j.id,
		Status:    j.state,
		Graph:     j.graphN,
		Problem:   j.problem,
		Picks:     picks,
		Error:     j.errMsg,
		Result:    j.result,
		ResultCut: j.resultCut,
		StatusURL: "/v1/jobs/" + j.id,
		TraceURL:  "/v1/jobs/" + j.id + "/trace",
	}
}

// JobStats counts jobs by lifecycle state; done/failed/canceled are
// cumulative (they survive retention eviction, and with a state dir the
// journal re-seeds them across restarts with the retained history).
type JobStats struct {
	Queued   int64 `json:"queued"`
	Running  int64 `json:"running"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
}

// jobStore indexes jobs by id, bounds how many are active at once, and
// retains a bounded history of finished jobs — journaled to disk when a
// journal is attached.
type jobStore struct {
	mu        sync.Mutex
	jobs      map[string]*job
	order     []*job // insertion order, for retention eviction
	maxActive int
	retention int
	active    int   // queued + running, maintained incrementally
	done      int64 // cumulative, incl. evicted
	failed    int64
	canceled  int64
	journal   *jobJournal // nil without a state dir

	journalErrors atomic.Int64 // failed journal appends (history-at-risk signal)
}

func newJobStore(maxActive, retention int, journal *jobJournal) *jobStore {
	if maxActive <= 0 {
		maxActive = 64
	}
	if retention <= 0 {
		retention = defaultJobRetention
	}
	return &jobStore{jobs: map[string]*job{}, maxActive: maxActive, retention: retention, journal: journal}
}

// restore seeds the store with journaled finished jobs, oldest first.
// Non-terminal records (which a clean journal never contains) and
// duplicate ids are skipped.
func (st *jobStore) restore(records []jobRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range records {
		if !terminal(rec.Status) {
			continue
		}
		if _, dup := st.jobs[rec.ID]; dup {
			continue
		}
		j := &job{
			id:            rec.ID,
			graphN:        rec.Graph,
			problem:       rec.Problem,
			created:       rec.Created,
			state:         rec.Status,
			finished:      rec.Finished,
			result:        rec.Result,
			errMsg:        rec.Error,
			restoredPicks: rec.Picks,
			resultCut:     rec.ResultCut,
			notify:        make(chan struct{}),
		}
		st.jobs[j.id] = j
		st.order = append(st.order, j)
		switch rec.Status {
		case JobDone:
			st.done++
		case JobFailed:
			st.failed++
		case JobCanceled:
			st.canceled++
		}
	}
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: job id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// add registers a new queued job. The active cap is checked against the
// incrementally maintained count — O(1), where it used to rescan every
// retained job under both locks.
func (st *jobStore) add(graphName, problem string) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active >= st.maxActive {
		return nil, ErrCapacity
	}
	j := &job{
		id:      newJobID(),
		graphN:  graphName,
		problem: problem,
		created: time.Now(),
		state:   JobQueued,
		notify:  make(chan struct{}),
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j)
	st.active++
	st.evictLocked()
	return j, nil
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// It runs on both add and finish, so history shrinks as soon as a
// job finishes over the bound instead of lingering until the next submit.
func (st *jobStore) evictLocked() {
	if len(st.order) <= st.retention {
		return
	}
	kept := st.order[:0]
	excess := len(st.order) - st.retention
	for _, j := range st.order {
		j.mu.Lock()
		finished := terminal(j.state)
		j.mu.Unlock()
		if excess > 0 && finished {
			delete(st.jobs, j.id)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	st.order = kept
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// finish moves a job to its terminal state. The record is journaled
// before the job becomes visible as finished, so a client that has seen
// "done" can count on the job surviving a restart. Then the active count
// drops, the cumulative counter for its outcome bumps, and
// over-retention history is evicted immediately.
func (st *jobStore) finish(j *job, resp *SolveResponse, err error) {
	rec := j.settle(resp, err)
	if st.journal != nil {
		if err := st.journal.append(rec); err != nil {
			st.journalErrors.Add(1)
		}
	}
	j.publish()
	st.mu.Lock()
	st.active--
	switch rec.Status {
	case JobFailed:
		st.failed++
	case JobCanceled:
		st.canceled++
	default:
		st.done++
	}
	st.evictLocked()
	st.mu.Unlock()
	if st.journal != nil {
		// Opportunistic compaction: once appends have grown the file past
		// ~4× retention, rewrite it from the retained in-memory history.
		if _, err := st.journal.maybeCompact(st.retainedRecords); err != nil {
			st.journalErrors.Add(1)
		}
	}
}

// retainedRecords snapshots the store's retained finished jobs in
// insertion order — exactly what a freshly compacted journal should
// hold. Called by the journal under its own lock; the journal.mu →
// jobStore.mu order is safe because no store method calls into the
// journal while holding st.mu.
func (st *jobStore) retainedRecords() []jobRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	var recs []jobRecord
	for _, j := range st.order {
		rec := j.record()
		if terminal(rec.Status) {
			recs = append(recs, rec)
		}
	}
	return recs
}

func (st *jobStore) stats() JobStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := JobStats{Done: st.done, Failed: st.failed, Canceled: st.canceled}
	for _, j := range st.order {
		j.mu.Lock()
		switch j.state {
		case JobQueued:
			out.Queued++
		case JobRunning:
			out.Running++
		}
		j.mu.Unlock()
	}
	return out
}

func (st *jobStore) list() []JobStatus {
	st.mu.Lock()
	jobs := append([]*job(nil), st.order...)
	st.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		s := j.status()
		s.Result = nil // keep the listing light; fetch one job for the result
		out[i] = s
	}
	return out
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
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
	// Jobs route like solves — the owner's cache hosts the sketch. The
	// accepted job's id is remembered against the peer that took it, so
	// status polls and trace streams landing here forward correctly.
	if cands := s.routeCandidates(r, routeKeyFor(req.Graph, spec)); cands != nil {
		proxied := s.proxyWithFailover(w, r, cands, "/v1/jobs", body, func(peer string, status int, data []byte) {
			var js JobStatus
			if status == http.StatusAccepted && json.Unmarshal(data, &js) == nil && js.ID != "" {
				s.cluster.rememberJob(js.ID, peer)
			}
		})
		if proxied {
			return
		}
	}
	// Resolve the graph synchronously so unknown names are a 404 at
	// submission, not a failed job discovered later. The job solves the
	// snapshot current at submission: an update applied while it queues
	// does not retarget it.
	g, version, ok := s.getGraph(w, req.Graph)
	if !ok {
		return
	}
	j, err := s.jobs.add(req.Graph, spec.Problem.String())
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, CodeCapacity, "job queue full; retry later")
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.arm(cancel)
	// The 202 reports the job as accepted. Snapshot it before the job
	// runs: a fully memoized solve can finish before the response is
	// written.
	accepted := j.status()
	go s.runJob(ctx, j, g, req.Graph, version, spec)
	writeJSON(w, http.StatusAccepted, accepted)
}

// startGate wraps a workerGate so the job flips from "queued" to
// "running" only when it first actually holds a worker slot — until then
// GET /v1/jobs/{id} and the /v1/stats queue counters report the backlog
// truthfully.
type startGate struct {
	workerGate
	once    *sync.Once
	started func()
}

func (g startGate) acquire(ctx context.Context) bool {
	if !g.workerGate.acquire(ctx) {
		return false
	}
	g.once.Do(g.started)
	return true
}

// runJob executes one submitted solve. It runs detached from the
// submitting request: the sample build and solve gate on the shared
// worker pool without a queue timeout (blockingGate), and every greedy
// pick is forwarded to the job's trace buffer for streaming. The job
// stays "queued" until the solve first holds a worker slot. ctx is the
// job's cancellation context (fired by DELETE /v1/jobs/{id}): a queued
// job aborts while waiting for its slot, a running solve at the next
// greedy pick via the fairim.Config.Cancel seam.
func (s *Server) runJob(ctx context.Context, j *job, g *graph.Graph, graphName string, version uint64, spec fairim.ProblemSpec) {
	defer j.cancel() // release the context once the job is decided
	gate := startGate{workerGate: blockingGate{s}, once: &sync.Once{}, started: j.setRunning}
	spec.Cancel = ctx.Done()
	spec.OnIteration = j.appendPick
	resp, err := s.solveOne(ctx, gate, graphName, version, g, spec)
	s.jobs.finish(j, resp, err)
}

// handleJobCancel is DELETE /v1/jobs/{id}: ask a queued or running job to
// stop. Cancellation is cooperative — the response reports the state at
// request time; poll GET /v1/jobs/{id} (or the trace stream) for the
// terminal "canceled". A job that already finished is a 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		if s.forwardJobRequest(w, r, r.PathValue("id")) {
			return
		}
		writeError(w, http.StatusNotFound, CodeJobNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, CodeJobFinished, "job %q already finished", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		if s.forwardJobRequest(w, r, r.PathValue("id")) {
			return
		}
		writeError(w, http.StatusNotFound, CodeJobNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobTrace streams the job's greedy picks as server-sent events:
// one "pick" event per iteration (replaying history first, then live),
// then a terminal "done" event carrying the final status. The stream ends
// when the job finishes or the client disconnects.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		// Forwarded traces stream live through the proxy (CopyResponse
		// flushes per chunk).
		if s.forwardJobRequest(w, r, r.PathValue("id")) {
			return
		}
		writeError(w, http.StatusNotFound, CodeJobNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sent := 0
	for {
		j.mu.Lock()
		pending := append([]TraceEvent(nil), j.trace[sent:]...)
		state := j.state
		errMsg := j.errMsg
		notify := j.notify
		// Journal-restored jobs have no trace buffer to replay; their
		// terminal event still reports the pick count on record.
		donePicks := len(j.trace)
		if donePicks == 0 {
			donePicks = j.restoredPicks
		}
		j.mu.Unlock()

		for _, ev := range pending {
			if err := writeSSE(w, "pick", ev); err != nil {
				return
			}
			sent++
		}
		if len(pending) > 0 {
			fl.Flush()
		}
		if terminal(state) {
			_ = writeSSE(w, "done", struct {
				Status string `json:"status"`
				Picks  int    `json:"picks"`
				Error  string `json:"error,omitempty"`
			}{Status: state, Picks: donePicks, Error: errMsg})
			fl.Flush()
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one server-sent event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
