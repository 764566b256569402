package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fairtcim/internal/graph"
	"fairtcim/internal/server"
	"fairtcim/internal/stats"
)

// The serve-cache experiment drives the persistent serving layer
// end-to-end: it boots an in-process fairtcimd-equivalent HTTP server on
// an ephemeral port, then measures the cold request (which builds the
// estimator sample), warm repeats (cache hits), and a concurrent burst of
// identical requests (singleflight: one build no matter the fan-in).

func init() {
	register(Experiment{
		ID:    "serve-cache",
		Title: "Serving layer: cold vs warm /v1/select latency and singleflight behavior",
		Run:   runServeCache,
	})
}

func runServeCache(o Options) (*stats.Table, error) {
	reg := server.NewRegistry()
	if err := reg.Register("twoblock", "synthetic:twoblock", func() (*graph.Graph, error) {
		return synthGraph(o, o.Seed)
	}); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Registry: reg, MaxConcurrent: 8})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	reqBody := func(seed int64) string {
		return fmt.Sprintf(
			`{"graph":"twoblock","problem":"p4","budget":%d,"tau":20,"engine":"%s","samples":%d,"ris_per_group":%d,"seed":%d,"eval":"sample"}`,
			synthBudget(o), o.Engine, pick(o, 200, 50), pick(o, 40000, 8000), seed)
	}
	post := func(body string) (server.SolveResponse, time.Duration, error) {
		var out server.SolveResponse
		start := time.Now()
		resp, err := http.Post(base+"/v1/select", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return out, 0, err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return out, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return out, 0, fmt.Errorf("serve-cache: HTTP %d", resp.StatusCode)
		}
		return out, time.Since(start), nil
	}

	t := stats.NewTable(
		"serve-cache: persistent serving layer, cold vs warm sketch reuse",
		"phase", "ms", "cache_hit", "builds", "hits")

	cold, coldDur, err := post(reqBody(1))
	if err != nil {
		return nil, err
	}
	st := srv.CacheStats()
	t.AddRow("cold", ms(coldDur), b2f(cold.CacheHit), float64(st.Builds), float64(st.Hits))

	const warmRuns = 3
	warmTotal := time.Duration(0)
	for i := 0; i < warmRuns; i++ {
		warm, warmDur, err := post(reqBody(1))
		if err != nil {
			return nil, err
		}
		if !warm.CacheHit {
			return nil, fmt.Errorf("serve-cache: warm request %d missed the cache", i)
		}
		warmTotal += warmDur
	}
	warmMean := warmTotal / warmRuns
	st = srv.CacheStats()
	t.AddRow("warm-mean", ms(warmMean), 1, float64(st.Builds), float64(st.Hits))

	// Concurrent burst on a fresh key: singleflight must build once.
	const burst = 6
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	start := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := post(reqBody(2)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	burstDur := time.Since(start)
	st2 := srv.CacheStats()
	burstBuilds := st2.Builds - st.Builds
	if burstBuilds != 1 {
		return nil, fmt.Errorf("serve-cache: concurrent burst built %d sketches, want 1", burstBuilds)
	}
	t.AddRow(fmt.Sprintf("burst-%d", burst), ms(burstDur), 0, float64(st2.Builds), float64(st2.Hits))

	t.AddRow("speedup", float64(coldDur)/float64(warmMean), 0, 0, 0)
	return t, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
