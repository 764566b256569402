// Package server is the persistent serving layer: a long-running
// fairtcimd process answers (Fair)TCIM queries over HTTP/JSON instead of
// rebuilding the graph and resampling estimator pools on every CLI
// invocation — the TIM/IMM-style amortization of sketch construction
// across queries.
//
// Request flow (client → server → estimator cache → engines → CSR graph):
//
//   - a Registry loads named graphs once (file-backed or synthetic via
//     internal/generate) and shares the immutable *graph.Graph across
//     all requests;
//   - requests decode directly into a fairim.ProblemSpec (SolveRequest is
//     its wire form), so the HTTP layer adds no second validation or
//     defaulting scheme on top of the solver's;
//   - a Cache keys warm optimization samples — τ-bounded RR-sketch
//     Collections (internal/ris) or live-edge world sets
//     (internal/cascade) — by (graph, version, engine, model, τ, sample
//     budget, seed), holds them behind an LRU, and singleflights
//     concurrent builds so an identical sketch is sampled exactly once no
//     matter how many requests ask for it at the same time. Publishing a
//     sample at graph version v supersedes the same key's older versions:
//     their entries and prefix memos are dropped, so an updated graph's
//     old snapshots are not kept reachable. Accuracy-targeted requests
//     key by (ε, δ, sizing k) instead of a count: the stopping-rule-sized
//     pool (ris.SampleForAccuracy for RIS, fairim.HoeffdingWorlds for
//     forward MC) is derived once inside the singleflight and shared like
//     any other sample;
//   - every solve — a /v1/select, a job, a /v1/select/batch and a
//     coalescing window alike — runs one pipeline (planner.go): a single
//     select or job is a batch of one. It fetches each distinct sample,
//     takes one worker slot, and runs one fairim.SolveBatch, whose hooks
//     read and feed the seed-prefix memo and build a cheap per-unit
//     estimator.Estimator over the shared read-only sample (so solves
//     never contend on estimator state) — only for a unit the memo does
//     not answer outright;
//   - a worker-pool semaphore bounds concurrent solves; excess
//     synchronous requests queue up to a timeout and are then shed with
//     503, degrading gracefully under load instead of thrashing.
//
// Long solves go through the async job API instead of holding an HTTP
// worker: POST /v1/jobs returns a job id immediately, the solve gates on
// the same worker pool (without the synchronous queue timeout), GET
// /v1/jobs/{id} polls status and result, GET /v1/jobs/{id}/trace streams
// one server-sent "pick" event per greedy iteration — the
// fairim.Config.OnIteration seam — followed by a terminal "done" event,
// and DELETE /v1/jobs/{id} cancels: a queued job aborts before taking a
// worker slot, a running one cooperatively at the next pick boundary via
// fairim.Config.Cancel (the cancellation face of the same seam).
//
// With Config.StateDir set, the most expensive artifacts outlive the
// process: every built sample is written through to disk in a versioned,
// checksummed, graph-fingerprinted format (internal/persist frames around
// the ris/cascade codecs) and reloaded on a memory miss — inside the
// singleflight, so disk too is touched once per key — and finished jobs
// are journaled so /v1/jobs history survives restarts. State files are
// validated before use; stale, truncated or mismatched ones degrade to a
// cold build, never to a wrong answer.
//
// Endpoints: POST /v1/select (synchronous seed selection), POST
// /v1/estimate (spread evaluation of a caller-supplied seed set), POST
// /v1/jobs + GET /v1/jobs[/{id}[/trace]] + DELETE /v1/jobs/{id} (async
// jobs), GET /v1/stats (cache, worker-pool, job and persistence
// counters), GET /v1/graphs (introspection), GET /healthz (liveness +
// cache stats). cmd/fairtcimd is the daemon wrapping this package;
// cmd/fairtcim -server is a thin client for it.
package server
