package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"fairtcim/internal/cluster"
)

// Prometheus-format observability and the structured access log. The
// same counters /v1/stats serves as JSON are exported at GET /metrics in
// the text exposition format, joined by per-endpoint request counters
// and latency histograms collected by a middleware around the mux. No
// client library: the format is a few lines of text, and hand-rolling it
// keeps the dependency set untouched.

// latencyBounds are the histogram bucket upper bounds in seconds,
// spanning cache-hit microservice latencies through multi-second cold
// sketch builds. A fixed shared layout keeps /metrics queries aggregable
// across replicas.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// routeMetrics accumulates one route pattern's request tallies.
type routeMetrics struct {
	byCode  map[int]int64
	buckets []int64 // one per latencyBounds entry; +Inf is count - sum(buckets)
	count   int64
	sum     float64 // seconds
}

// httpMetrics is the middleware state: per-route tallies plus the
// optional access log sink. One instance lives for the process; the
// route-pattern cardinality is bounded by the mux's registrations (plus
// the one synthetic "unmatched" label).
type httpMetrics struct {
	mu     sync.Mutex
	routes map[string]*routeMetrics

	logMu sync.Mutex
	log   io.Writer // nil = no access log
}

func newHTTPMetrics(log io.Writer) *httpMetrics {
	return &httpMetrics{routes: map[string]*routeMetrics{}, log: log}
}

// statusRecorder captures the response status and size for metrics and
// the access log. Flush forwards when the underlying writer supports it,
// so the SSE trace stream keeps flushing through the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.status = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	sr.wrote = true
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if fl, ok := sr.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// accessRecord is one structured access-log line (JSON, one per
// request, written after the response completes).
type accessRecord struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Route    string  `json:"route"`
	Status   int     `json:"status"`
	Bytes    int64   `json:"bytes"`
	MS       float64 `json:"ms"`
	Remote   string  `json:"remote,omitempty"`
	Proxied  bool    `json:"proxied,omitempty"`
	UserAgnt string  `json:"user_agent,omitempty"`
}

// wrap instruments next: every request is timed, tallied under its
// matched route pattern (Go 1.22 mux sets r.Pattern during ServeHTTP),
// and optionally logged.
func (m *httpMetrics) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		m.observe(route, rec.status, dur)
		if m.log != nil {
			line, err := json.Marshal(accessRecord{
				Time:     start.UTC().Format(time.RFC3339Nano),
				Method:   r.Method,
				Path:     r.URL.Path,
				Route:    route,
				Status:   rec.status,
				Bytes:    rec.bytes,
				MS:       float64(dur.Microseconds()) / 1000,
				Remote:   r.RemoteAddr,
				Proxied:  r.Header.Get(proxiedHeader) != "",
				UserAgnt: r.UserAgent(),
			})
			if err == nil {
				m.logMu.Lock()
				_, _ = m.log.Write(append(line, '\n'))
				m.logMu.Unlock()
			}
		}
	})
}

func (m *httpMetrics) observe(route string, code int, dur time.Duration) {
	secs := dur.Seconds()
	m.mu.Lock()
	rm := m.routes[route]
	if rm == nil {
		rm = &routeMetrics{byCode: map[int]int64{}, buckets: make([]int64, len(latencyBounds))}
		m.routes[route] = rm
	}
	rm.byCode[code]++
	rm.count++
	rm.sum += secs
	for i, b := range latencyBounds {
		if secs <= b {
			rm.buckets[i]++
		}
	}
	m.mu.Unlock()
}

// writeProm renders the per-route request counters and latency
// histograms in the Prometheus text exposition format. Buckets are
// cumulative per the format; the loop in observe already tallies them
// cumulatively (every bound >= the latency gets the sample).
func (m *httpMetrics) writeProm(w io.Writer) {
	m.mu.Lock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		route   string
		byCode  map[int]int64
		buckets []int64
		count   int64
		sum     float64
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		rm := m.routes[name]
		codes := make(map[int]int64, len(rm.byCode))
		for c, n := range rm.byCode {
			codes[c] = n
		}
		rows = append(rows, row{name, codes, append([]int64(nil), rm.buckets...), rm.count, rm.sum})
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP fairtcim_http_requests_total Requests served, by route pattern and status code.")
	fmt.Fprintln(w, "# TYPE fairtcim_http_requests_total counter")
	for _, r := range rows {
		codes := make([]int, 0, len(r.byCode))
		for c := range r.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "fairtcim_http_requests_total{route=%q,code=\"%d\"} %d\n", r.route, c, r.byCode[c])
		}
	}
	fmt.Fprintln(w, "# HELP fairtcim_http_request_duration_seconds Request latency by route pattern.")
	fmt.Fprintln(w, "# TYPE fairtcim_http_request_duration_seconds histogram")
	for _, r := range rows {
		for i, b := range latencyBounds {
			fmt.Fprintf(w, "fairtcim_http_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				r.route, strconv.FormatFloat(b, 'g', -1, 64), r.buckets[i])
		}
		fmt.Fprintf(w, "fairtcim_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r.route, r.count)
		fmt.Fprintf(w, "fairtcim_http_request_duration_seconds_sum{route=%q} %g\n", r.route, r.sum)
		fmt.Fprintf(w, "fairtcim_http_request_duration_seconds_count{route=%q} %d\n", r.route, r.count)
	}
}

// promGauge/promCounter write one unlabeled sample with its TYPE line.
func promCounter(w io.Writer, name string, v int64) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
}

func promGauge(w io.Writer, name string, v int64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
}

// writeClusterStats exports the cluster_* counter family; shared by the
// replica's and the router's /metrics.
func writeClusterStats(w io.Writer, cs cluster.Stats) {
	promGauge(w, "fairtcim_cluster_peers_known", int64(cs.PeersKnown))
	promGauge(w, "fairtcim_cluster_peers_up", int64(cs.PeersUp))
	promCounter(w, "fairtcim_cluster_proxied_total", cs.Proxied)
	promCounter(w, "fairtcim_cluster_failovers_total", cs.Failovers)
	promCounter(w, "fairtcim_cluster_peer_fetches_total", cs.PeerFetches)
	promCounter(w, "fairtcim_cluster_peer_fetch_bytes_total", cs.PeerFetchBytes)
	promCounter(w, "fairtcim_cluster_peer_fetch_errors_total", cs.PeerFetchErrors)
	promCounter(w, "fairtcim_cluster_update_fanouts_total", cs.UpdateFanouts)
	promCounter(w, "fairtcim_cluster_probes_total", cs.Probes)
}

// handleMetrics is GET /metrics: the middleware's per-route series plus
// the /v1/stats counter families flattened into Prometheus samples.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w)
	st := s.Stats()
	promGauge(w, "fairtcim_cache_entries", int64(st.Cache.Entries))
	promCounter(w, "fairtcim_cache_hits_total", st.Cache.Hits)
	promCounter(w, "fairtcim_cache_misses_total", st.Cache.Misses)
	promCounter(w, "fairtcim_cache_builds_total", st.Cache.Builds)
	promCounter(w, "fairtcim_cache_evictions_total", st.Cache.Evictions)
	promCounter(w, "fairtcim_cache_disk_hits_total", st.Cache.DiskHits)
	promCounter(w, "fairtcim_cache_disk_writes_total", st.Cache.DiskWrites)
	promCounter(w, "fairtcim_cache_disk_errors_total", st.Cache.DiskErrors)
	promCounter(w, "fairtcim_cache_refreshes_total", st.Cache.Refreshes)
	promCounter(w, "fairtcim_cache_invalidated_total", st.Cache.Invalidated)
	promCounter(w, "fairtcim_cache_superseded_total", st.Cache.Superseded)
	promCounter(w, "fairtcim_cache_disk_gc_removals_total", st.Cache.DiskGCRemovals)
	promGauge(w, "fairtcim_cache_disk_flushes_inflight", st.Cache.FlushesInFlight)
	promCounter(w, "fairtcim_cache_rr_refreshed_total", st.Cache.RRRefreshed)
	promCounter(w, "fairtcim_cache_rr_retained_total", st.Cache.RRRetained)
	promGauge(w, "fairtcim_cache_prefix_entries", int64(st.Cache.PrefixEntries))
	promCounter(w, "fairtcim_cache_prefix_hits_total", st.Cache.PrefixHits)
	promCounter(w, "fairtcim_cache_prefix_stores_total", st.Cache.PrefixStores)
	promGauge(w, "fairtcim_workers_capacity", int64(st.Workers.Capacity))
	promGauge(w, "fairtcim_workers_active", int64(st.Workers.Active))
	promGauge(w, "fairtcim_requests_queued", st.Workers.Queued)
	promCounter(w, "fairtcim_requests_shed_total", st.Workers.Shed)
	promGauge(w, "fairtcim_jobs_queued", st.Jobs.Queued)
	promGauge(w, "fairtcim_jobs_running", st.Jobs.Running)
	promCounter(w, "fairtcim_jobs_done_total", st.Jobs.Done)
	promCounter(w, "fairtcim_jobs_failed_total", st.Jobs.Failed)
	promCounter(w, "fairtcim_jobs_canceled_total", st.Jobs.Canceled)
	promCounter(w, "fairtcim_jobs_journal_errors_total", st.JournalErrors)
	promCounter(w, "fairtcim_jobs_journal_dropped_total", st.JournalDropped)
	promCounter(w, "fairtcim_planner_batches_total", st.Planner.Batches)
	promCounter(w, "fairtcim_planner_groups_total", st.Planner.Groups)
	promCounter(w, "fairtcim_planner_singletons_total", st.Planner.Singletons)
	promCounter(w, "fairtcim_planner_coalesced_total", st.Planner.Coalesced)
	if st.Cluster != nil {
		writeClusterStats(w, *st.Cluster)
	}
}
