package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"fairtcim/internal/estimator"
	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
)

// The batched query planner. Concurrent ProblemSpecs against the same
// graph version and sketch shape mostly differ only in their budget or
// report mode, yet each used to pay a full greedy pass over the shared
// sample. fairim.SolveBatch coalesces compatible specs onto one shared
// estimator and one CELF run, peeling each query's answer at its own
// budget boundary with bit-identical output (the parity matrix in
// internal/fairim pins that guarantee). This file is the serving-side
// harness: the one solve pipeline every select and job runs, the POST
// /v1/select/batch endpoint, the optional coalescing window that batches
// concurrent /v1/select traffic transparently, and the planner counters
// in /v1/stats.

// maxBatchRequests bounds one POST /v1/select/batch body; larger
// batches should be split by the client (each sub-batch still coalesces
// internally).
const maxBatchRequests = 256

// BatchSolveRequest is the body of POST /v1/select/batch: an ordered
// list of SolveRequests, answered positionally. The requests may target
// different graphs; coalescing happens per (graph, version, sample key,
// problem shape) — see the README for the exact compatibility rules.
type BatchSolveRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is one request's outcome inside a batch response: exactly
// one of Response or Error is set. Item errors use the same envelope
// payload as the single-request endpoints, so clients can reuse their
// error handling per item.
type BatchItem struct {
	Response *SolveResponse `json:"response,omitempty"`
	Error    *apiError      `json:"error,omitempty"`
}

// BatchSolveResponse is the body of a POST /v1/select/batch answer.
// The planner tallies describe this batch: PlannerGroups shared runs
// served ≥2 requests each, PlannerSingletons requests ran alone, and
// Coalesced requests in total rode a shared run.
type BatchSolveResponse struct {
	Items             []BatchItem `json:"items"`
	PlannerGroups     int         `json:"planner_groups"`
	PlannerSingletons int         `json:"planner_singletons"`
	Coalesced         int         `json:"coalesced"`
}

// PlannerStats is the /v1/stats roll-up of batched planning since
// start: explicit batch requests plus coalescing-window batches.
type PlannerStats struct {
	Batches    int64 `json:"batches"`
	Groups     int64 `json:"groups"`
	Singletons int64 `json:"singletons"`
	Coalesced  int64 `json:"coalesced"`
}

// batchItemResult is one spec's outcome from the batch core, before
// wire encoding.
type batchItemResult struct {
	resp *SolveResponse
	err  error
}

// solveBatch is the one solve pipeline: a plain select, an async job
// (both via solveOne), a /v1/select/batch partition and a coalescing
// window all run decoded specs against one graph snapshot here, sharing
// work across them: every distinct sample key is fetched (or built) once
// up front, then a single worker slot hosts one fairim.SolveBatch over
// all specs. Samples are prefetched before the slot is taken —
// SampleFor acquires and releases the gate itself, and holding the
// batch's slot across those builds would deadlock a MaxConcurrent=1
// server against its own prefetch. When no fetch succeeded, every item
// fails with its own fetch error and no slot is taken, so a request the
// fetch already shed is not queued (and shed) a second time; the report
// is then zero. Per-spec failures (bad spec, failed sample build) land
// in that item only; the returned error is batch-fatal (capacity, caller
// gone) and means no item ran.
func (s *Server) solveBatch(ctx context.Context, gate workerGate, graphName string, version uint64, g *graph.Graph, specs []fairim.ProblemSpec) ([]batchItemResult, fairim.BatchReport, error) {
	type fetched struct {
		smp     *sample
		hit     bool
		buildMS float64
		err     error
	}
	samples := make(map[sampleKey]*fetched)
	keys := make([]sampleKey, len(specs))
	usable := false
	for i := range specs {
		specs[i].Parallelism = s.parallelism
		key := sampleKeyFor(graphName, version, g, specs[i], false)
		keys[i] = key
		f := samples[key]
		if f == nil {
			f = &fetched{}
			f.smp, f.hit, f.buildMS, f.err = s.cache.SampleFor(ctx, key, g, s.parallelism, gate)
			samples[key] = f
		}
		usable = usable || f.err == nil
	}
	items := make([]batchItemResult, len(specs))
	if !usable {
		for i, key := range keys {
			items[i].err = samples[key].err
		}
		return items, fairim.BatchReport{}, nil
	}

	// One worker slot hosts the whole batch solve; that single slot is
	// the point of the planner — N queries, one unit of pool pressure.
	// A failed acquire is only a capacity refusal when the request is
	// still alive — a cancelled request reports its own cancellation,
	// never a spurious 503.
	if !gate.acquire(ctx) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fairim.BatchReport{}, cerr
		}
		return nil, fairim.BatchReport{}, ErrCapacity
	}
	defer gate.release()

	// The whole batch is one occupant of the pool, so it shares one
	// occupancy-adapted worker count (computed while holding the slot).
	effPar := s.effectiveParallelism()
	for i := range specs {
		specs[i].Parallelism = effPar
	}

	// warmLens records, per unit id, how many memoized seeds primed the
	// unit's run; members report min(that, own budget) as warm_seeds.
	// SolveBatch runs units sequentially on this goroutine, so plain
	// maps are safe.
	warmLens := make(map[int]int)
	opts := &fairim.BatchOptions{
		Estimator: func(gid int, rep fairim.ProblemSpec) (estimator.Estimator, error) {
			// rep is one of specs, so its sample was fetched above.
			f := samples[sampleKeyFor(graphName, version, g, rep, false)]
			if f.err != nil {
				// A failed prefetch fails the unit — every member shares
				// the sample key, so the error lands exactly on the items
				// that needed it (nil, nil would silently rebuild inside
				// the batch's slot instead).
				return nil, f.err
			}
			return f.smp.newEstimator(rep.Tau)
		},
		Warm: func(gid int, rep fairim.ProblemSpec) *fairim.WarmStart {
			key := sampleKeyFor(graphName, version, g, rep, false)
			pk, ok := prefixKeyFor(key, rep)
			// A memo can outlive its sample (the two LRUs are separate).
			// After a failed fetch, none is offered, so the Estimator hook
			// fails the unit with the fetch error instead of a memo answer
			// that has no sample to report.
			if !ok || samples[key].err != nil {
				return nil
			}
			w := s.cache.warmFor(pk)
			if w != nil {
				warmLens[gid] = len(w.Seeds)
			}
			return w
		},
		OnWarm: func(gid int, rep fairim.ProblemSpec, w *fairim.WarmStart) {
			if pk, ok := prefixKeyFor(sampleKeyFor(graphName, version, g, rep, false), rep); ok {
				s.cache.storeWarm(pk, w)
			}
		},
	}

	start := time.Now()
	outcomes, report := fairim.SolveBatch(g, specs, opts)
	solveMS := float64(time.Since(start).Microseconds()) / 1000

	for i, out := range outcomes {
		if out.Err != nil {
			items[i] = batchItemResult{err: out.Err}
			continue
		}
		res := out.Result
		f := samples[keys[i]]
		warm := 0
		if gid := report.GroupOf[i]; gid >= 0 && specs[i].Problem.IsBudget() {
			if warm = warmLens[gid]; warm > specs[i].Budget {
				warm = specs[i].Budget
			}
		}
		items[i] = batchItemResult{resp: &SolveResponse{
			Problem:              res.Problem,
			Graph:                graphName,
			Engine:               specs[i].Engine.String(),
			UtilityReport:        reportOf(res),
			Evaluations:          res.Evaluations,
			CacheHit:             f.hit,
			GraphVersion:         version,
			RRRefreshed:          f.smp.rrRefreshed,
			RRRetained:           f.smp.rrRetained,
			WarmSeeds:            warm,
			SampleMS:             f.buildMS,
			SolveMS:              solveMS, // the whole shared pass; per-item attribution would be fiction
			ResolvedSamples:      res.Samples,
			ResolvedRISPerGroup:  res.RISPerGroup,
			Trace:                traceEvents(res.Trace),
			EffectiveParallelism: effPar,
		}}
	}
	return items, report, nil
}

// solveOne is solveBatch on a one-element batch: the pipeline a plain
// /v1/select and an async job run. It counts toward no planner tally.
func (s *Server) solveOne(ctx context.Context, gate workerGate, graphName string, version uint64, g *graph.Graph, spec fairim.ProblemSpec) (*SolveResponse, error) {
	items, _, err := s.solveBatch(ctx, gate, graphName, version, g, []fairim.ProblemSpec{spec})
	if err != nil {
		return nil, err
	}
	return items[0].resp, items[0].err
}

// countBatch adds one batch solve — an explicit /v1/select/batch
// partition or a coalescing-window batch — to the planner counters. A
// zero report means no solve ran (every sample fetch failed) and counts
// nothing.
func (s *Server) countBatch(report fairim.BatchReport) {
	if len(report.GroupOf) == 0 {
		return
	}
	s.plannerBatches.Add(1)
	s.plannerGroups.Add(int64(report.Groups))
	s.plannerSingletons.Add(int64(report.Singletons))
	s.plannerCoalesced.Add(int64(report.Coalesced))
}

// errItem wraps a pipeline error as a wire item, mirroring
// writeSolveError's code mapping.
func errItem(err error) BatchItem {
	code := errCode(err)
	msg := err.Error()
	if code == CodeCapacity {
		msg = "server at capacity; retry later"
	}
	return BatchItem{Error: &apiError{Code: code, Message: msg}}
}

// decodeBatch strictly decodes a POST /v1/select/batch body and refuses
// an empty batch or one over maxBatchRequests, writing the error envelope;
// ok is false once it has answered.
func decodeBatch(w http.ResponseWriter, body []byte) (req BatchSolveRequest, ok bool) {
	if !decodeStrict(w, body, &req) {
		return req, false
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadSpec, "empty batch")
		return req, false
	}
	if len(req.Requests) > maxBatchRequests {
		writeError(w, http.StatusBadRequest, CodeBadSpec, "batch of %d exceeds the %d-request limit", len(req.Requests), maxBatchRequests)
		return req, false
	}
	return req, true
}

// handleSelectBatch is POST /v1/select/batch. The response is
// positional: items[i] answers requests[i], each item carrying either a
// full SolveResponse or its own error envelope, so one bad spec never
// fails its neighbors. Requests are grouped by graph; each graph's
// snapshot is resolved exactly once, so every item for a graph reports
// the same graph_version — a batch can never mix versions.
func (s *Server) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, ok := decodeBatch(w, body)
	if !ok {
		return
	}
	// A batch whose requests all route to the same owner is proxied as a
	// unit; mixed batches are served here (correct either way — routing
	// only concentrates cache affinity).
	if key, uniform := batchRouteKey(req.Requests); uniform {
		if cands := s.routeCandidates(r, key); cands != nil {
			if s.proxyWithFailover(w, r, cands, "/v1/select/batch", body, nil) {
				return
			}
		}
	}

	resp := BatchSolveResponse{Items: make([]BatchItem, len(req.Requests))}
	// Partition decodable requests by graph, preserving arrival order
	// within each partition (group ids are assigned by first occurrence,
	// so order is part of the planner's determinism).
	specs := make([]fairim.ProblemSpec, len(req.Requests))
	var graphOrder []string
	byGraph := make(map[string][]int)
	for i, sub := range req.Requests {
		spec, err := sub.toSpec()
		if err != nil {
			resp.Items[i] = BatchItem{Error: &apiError{Code: CodeBadSpec, Message: err.Error()}}
			continue
		}
		specs[i] = spec
		if _, seen := byGraph[sub.Graph]; !seen {
			graphOrder = append(graphOrder, sub.Graph)
		}
		byGraph[sub.Graph] = append(byGraph[sub.Graph], i)
	}

	for _, name := range graphOrder {
		idxs := byGraph[name]
		g, version, err := s.reg.GetVersioned(name)
		if err != nil {
			for _, i := range idxs {
				resp.Items[i] = errItem(err)
			}
			continue
		}
		part := make([]fairim.ProblemSpec, len(idxs))
		for j, i := range idxs {
			part[j] = specs[i]
		}
		items, report, err := s.solveBatch(r.Context(), serverGate{s}, name, version, g, part)
		if err != nil {
			for _, i := range idxs {
				resp.Items[i] = errItem(err)
			}
			continue
		}
		for j, i := range idxs {
			if items[j].err != nil {
				resp.Items[i] = errItem(items[j].err)
			} else {
				resp.Items[i] = BatchItem{Response: items[j].resp}
			}
		}
		s.countBatch(report)
		resp.PlannerGroups += report.Groups
		resp.PlannerSingletons += report.Singletons
		resp.Coalesced += report.Coalesced
	}
	writeJSON(w, http.StatusOK, resp)
}

// coalescer batches concurrent single-request /v1/select traffic: the
// first arrival for a graph opens a window; requests landing inside it
// join the pending batch; when the window closes, the timer goroutine
// runs one shared solveBatch and hands each waiter its own item. A
// request pays at most the window in added latency, and under real
// concurrency earns a shared sketch pass and a shared CELF run in
// return. Keyed by graph name: specs for different graphs can never
// share work, so windowing them together would only add latency.
type coalescer struct {
	s       *Server
	window  time.Duration
	mu      sync.Mutex
	pending map[string]*pendingBatch
}

type pendingBatch struct {
	graph string
	items []*pendingSelect
}

type pendingSelect struct {
	spec fairim.ProblemSpec
	done chan batchItemResult
}

func newCoalescer(s *Server, window time.Duration) *coalescer {
	return &coalescer{s: s, window: window, pending: make(map[string]*pendingBatch)}
}

// submit enrolls one decoded request and blocks until its result is
// ready or the caller gives up. A caller that abandons ship leaves its
// buffered channel behind; the leader's send completes regardless.
func (c *coalescer) submit(ctx context.Context, graphName string, spec fairim.ProblemSpec) (*SolveResponse, error) {
	item := &pendingSelect{spec: spec, done: make(chan batchItemResult, 1)}
	c.mu.Lock()
	b := c.pending[graphName]
	if b == nil {
		b = &pendingBatch{graph: graphName}
		c.pending[graphName] = b
		time.AfterFunc(c.window, func() { c.flush(b) })
	}
	b.items = append(b.items, item)
	c.mu.Unlock()

	select {
	case res := <-item.done:
		return res.resp, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flush closes the window: detach the batch so new arrivals start a
// fresh one, then solve it and distribute. Runs on the window timer's
// goroutine — the batch occupies no HTTP handler while it executes.
func (c *coalescer) flush(b *pendingBatch) {
	c.mu.Lock()
	if c.pending[b.graph] == b {
		delete(c.pending, b.graph)
	}
	items := b.items
	c.mu.Unlock()

	fail := func(err error) {
		for _, it := range items {
			it.done <- batchItemResult{err: err}
		}
	}
	g, version, err := c.s.reg.GetVersioned(b.graph)
	if err != nil {
		fail(err)
		return
	}
	specs := make([]fairim.ProblemSpec, len(items))
	for i, it := range items {
		specs[i] = it.spec
	}
	// The window's batch is background work once waiters detach, so it
	// runs under its own context; individual waiters' disconnects must
	// not cancel their batchmates.
	results, report, err := c.s.solveBatch(context.Background(), serverGate{c.s}, b.graph, version, g, specs)
	if err != nil {
		fail(err)
		return
	}
	c.s.countBatch(report)
	for i, it := range items {
		it.done <- results[i]
	}
}
