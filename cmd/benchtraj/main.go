// Command benchtraj records the serving hot-path benchmark trajectory:
// it drives the same micro-benchmarks CI gates on — RR-set sampling,
// world sampling, sketch encode/decode, a delayed forward-MC gain query,
// a weight-only graph update (on the two-block graph and on the instagram
// stand-in), cold and prefix-extended solves, a fresh-world report of a
// solve's seeds, and the warm HTTP serve path on both engines — through
// testing.Benchmark and writes the numbers (ns/op, allocs/op, bytes/op,
// frame sizes, derived ratios) as a BENCH_<n>.json checkpoint. It also
// drives the batched query planner's sustained-load mix — 16 concurrent
// mixed specs answered by one SolveBatch versus sixteen per-query solves
// — verifying the two paths agree bit for bit before timing either.
//
//	go run ./cmd/benchtraj -out BENCH_6.json          # refresh the checkpoint
//	go run ./cmd/benchtraj -check BENCH_6.json        # CI: fail on regression
//
// Check mode re-measures and compares against the committed checkpoint:
// deterministic metrics (allocs/op, frame bytes, the bytes/op of the
// graph updates, payload encoders and fresh report, which use no pool,
// and the marginal-gain evaluations of a cold P4 solve on each engine)
// fail the run when they regress more than 10%; ns/op is recorded for
// the trajectory but never gated, since
// CI hardware varies. Both modes also enforce the absolute
// floors the optimization work claims: pooled RR sampling allocates ≥25%
// less than the per-set baseline, version-2 frames are ≥2× smaller than
// the version-1 layout, and a prefix-extended solve beats a cold solve at
// identical output seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"fairtcim/internal/cascade"
	"fairtcim/internal/datasets"
	"fairtcim/internal/estimator"
	"fairtcim/internal/fairim"
	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/ris"
	"fairtcim/internal/server"
	"fairtcim/internal/xrand"
)

// The fixed workload every checkpoint measures, chosen to match the
// root bench_test.go micro-benchmarks: the §6.1 two-block SBM with the
// RR-pool and world counts the serving defaults derive.
const (
	benchTau      = 5
	benchPool     = 2000 // RR sets per group
	benchWorlds   = 200
	benchPrefixK  = 25
	benchExtendK  = 50
	workloadLabel = "twoblock n=500 tau=5 ris=2000/group worlds=200 solve k=25->50 report k=25 planner=16q"
)

// Metric is one benchmark's measurement. AllocsOp and BytesOp are
// deterministic properties of the code path and are gated in check mode;
// NsOp is hardware-bound and only recorded.
type Metric struct {
	NsOp     int64 `json:"ns_op"`
	AllocsOp int64 `json:"allocs_op"`
	BytesOp  int64 `json:"bytes_op"`
}

// Trajectory is the BENCH_<n>.json schema. Evaluations holds the
// marginal-gain queries of fixed solves: deterministic, and gated like
// frame sizes, so a CELF change that evaluates more fails check mode.
type Trajectory struct {
	Workload    string             `json:"workload"`
	Metrics     map[string]Metric  `json:"metrics"`
	Sizes       map[string]int64   `json:"sizes"`
	Evaluations map[string]int64   `json:"evaluations,omitempty"`
	Derived     map[string]float64 `json:"derived"`
}

func main() {
	testing.Init()
	out := flag.String("out", "", "write the measured trajectory to this file")
	check := flag.String("check", "", "compare the measured trajectory against this checkpoint; exit 1 on >10% regression")
	benchtime := flag.String("benchtime", "", "per-benchmark measuring time (testing -benchtime syntax, e.g. 0.2s or 50x)")
	flag.Parse()
	if *out == "" && *check == "" {
		fmt.Fprintln(os.Stderr, "benchtraj: need -out or -check")
		os.Exit(2)
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchtraj:", err)
			os.Exit(2)
		}
	}

	traj, err := measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
	if errs := absoluteGates(traj); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "benchtraj: FAIL", e)
		}
		os.Exit(1)
	}
	if *check != "" {
		prev, err := readTrajectory(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtraj:", err)
			os.Exit(1)
		}
		if errs := compare(prev, traj); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "benchtraj: REGRESSION", e)
			}
			os.Exit(1)
		}
		fmt.Printf("benchtraj: no regression against %s (%d metrics, %d sizes)\n", *check, len(traj.Metrics), len(traj.Sizes))
	}
	if *out != "" {
		data, err := json.MarshalIndent(traj, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtraj:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchtraj:", err)
			os.Exit(1)
		}
		fmt.Printf("benchtraj: wrote %s\n", *out)
	}
}

func bench(f func(b *testing.B)) Metric {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	return Metric{NsOp: r.NsPerOp(), AllocsOp: r.AllocsPerOp(), BytesOp: r.AllocedBytesPerOp()}
}

// measure runs the full suite on the fixed workload.
func measure() (*Trajectory, error) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(1))
	if err != nil {
		return nil, err
	}
	perGroup := make([]int, g.NumGroups())
	for i := range perGroup {
		perGroup[i] = benchPool
	}
	traj := &Trajectory{
		Workload:    workloadLabel,
		Metrics:     map[string]Metric{},
		Sizes:       map[string]int64{},
		Evaluations: map[string]int64{},
		Derived:     map[string]float64{},
	}

	// --- sampling ---
	traj.Metrics["ris_sample"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ris.Sample(g, benchTau, perGroup, int64(i), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	traj.Metrics["ris_sample_unpooled_baseline"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baselineRRSample(g, benchTau, perGroup, int64(i))
		}
	})
	traj.Metrics["world_sample"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cascade.SampleWorldsCancel(g, cascade.IC, benchWorlds, int64(i), 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- codec ---
	col, err := ris.Sample(g, benchTau, perGroup, 1, 0)
	if err != nil {
		return nil, err
	}
	risPayload := col.EncodePayload()
	traj.Metrics["ris_encode"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col.EncodePayload()
		}
	})
	traj.Metrics["ris_decode"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ris.DecodePayload(risPayload, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	worlds := cascade.SampleWorlds(g, cascade.IC, benchWorlds, 1, 0)
	worldsPayload := cascade.EncodeWorlds(worlds)
	traj.Metrics["worlds_encode"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cascade.EncodeWorlds(worlds)
		}
	})
	traj.Metrics["worlds_decode"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cascade.DecodeWorlds(worldsPayload, g.N()); err != nil {
				b.Fatal(err)
			}
		}
	})
	traj.Sizes["ris_frame_v2_bytes"] = int64(len(risPayload))
	traj.Sizes["ris_frame_v1_bytes"] = risV1Bytes(col, g)
	traj.Sizes["worlds_frame_v2_bytes"] = int64(len(worldsPayload))
	traj.Sizes["worlds_frame_v1_bytes"] = worldsV1Bytes(worlds, g.N())

	// --- delayed forward MC: a marginal-gain query after two picks, over
	// every node in turn (as the root BenchmarkEvaluatorGain) ---
	delayedWorlds := cascade.SampleDelayedWorlds(g, cascade.GeometricDelay{M: 0.5}, benchWorlds, 1, 0)
	delayed, err := influence.NewDelayedEvaluator(g, delayedWorlds, benchTau)
	if err != nil {
		return nil, err
	}
	delayed.Add(0)
	delayed.Add(100)
	traj.Metrics["delayed_gain"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			delayed.Gain(graph.NodeID(i % g.N()))
		}
	})

	// --- graph update: re-weight 8 existing arcs, on the two-block graph
	// and on the instagram stand-in (55,363 nodes), which spans enough
	// pages to show what a weight-only update copies ---
	insta, err := datasets.Instagram(0.1, 0.06, 1)
	if err != nil {
		return nil, err
	}
	for _, upd := range []struct {
		name string
		g    *graph.Graph
	}{{"graph_apply_delta", g}, {"graph_apply_delta_instagram", insta}} {
		update := reweightDelta(upd.g)
		traj.Metrics[upd.name] = bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := upd.g.ApplyDelta(update); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// --- solve: cold vs prefix-extended ---
	spec := func() fairim.ProblemSpec {
		return fairim.ProblemSpec{
			Problem:  fairim.P4,
			Budget:   benchExtendK,
			Sampling: fairim.Sampling{RISPerGroup: benchPool},
			Config: fairim.Config{
				Tau:            benchTau,
				Engine:         fairim.EngineRIS,
				Seed:           1,
				Parallelism:    1,
				ReportOnSample: true,
				Estimator:      ris.NewEstimator(col),
			},
		}
	}
	capSpec := spec()
	capSpec.Budget = benchPrefixK
	capSpec.CaptureWarm = true
	capRes, err := fairim.Solve(g, capSpec)
	if err != nil {
		return nil, err
	}
	if capRes.Warm == nil {
		return nil, fmt.Errorf("k=%d solve captured no warm state", benchPrefixK)
	}
	coldRes, err := fairim.Solve(g, spec())
	if err != nil {
		return nil, err
	}
	warmSpec := spec()
	warmSpec.Warm = capRes.Warm
	warmRes, err := fairim.Solve(g, warmSpec)
	if err != nil {
		return nil, err
	}
	if fmt.Sprint(warmRes.Seeds) != fmt.Sprint(coldRes.Seeds) {
		return nil, fmt.Errorf("prefix-extended seeds %v diverge from cold %v", warmRes.Seeds, coldRes.Seeds)
	}
	traj.Evaluations["solve_cold_k50"] = int64(coldRes.Evaluations)
	// The same P4 solve on the forward-MC engine, over the codec's 200
	// worlds: P4's concave wrapper is where CELF's per-group bounds prune.
	mcEval, err := influence.NewEvaluator(g, worlds, benchTau)
	if err != nil {
		return nil, err
	}
	mcSpec := spec()
	mcSpec.Engine, mcSpec.Estimator = fairim.EngineForwardMC, mcEval
	mcSpec.Sampling = fairim.Sampling{Samples: benchWorlds}
	mcRes, err := fairim.Solve(g, mcSpec)
	if err != nil {
		return nil, err
	}
	traj.Evaluations["solve_mc_k50"] = int64(mcRes.Evaluations)
	traj.Metrics["solve_cold_k50"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fairim.Solve(g, spec()); err != nil {
				b.Fatal(err)
			}
		}
	})
	traj.Metrics["solve_prefix_extend_k25_k50"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := spec()
			s.Warm = capRes.Warm
			if _, err := fairim.Solve(g, s); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- fresh report: the k=25 seeds re-estimated on 200 fresh IC
	// worlds, the report a default select runs. Two workers, not
	// GOMAXPROCS: the report's bytes are per-worker scratch, so a fixed
	// count keeps them comparable across machines. ---
	reportSpec := fairim.ProblemSpec{
		Sampling: fairim.Sampling{Samples: benchWorlds},
		Config:   fairim.Config{Tau: benchTau, Seed: 1, Parallelism: 2},
	}
	traj.Metrics["fresh_report"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fairim.Evaluate(g, capRes.Seeds, reportSpec); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- planner: 16-query mixed batch, shared CELF vs per-query ---
	if err := benchPlanner(g, col, traj); err != nil {
		return nil, err
	}

	// --- warm serve: repeat select over the daemon's HTTP path, on an RR
	// sketch and on forward-MC worlds ---
	for _, serve := range []struct{ name, sample string }{
		{"warm_serve_select", fmt.Sprintf(`"engine":"ris","ris_per_group":%d`, benchPool)},
		{"warm_serve_select_mc", fmt.Sprintf(`"engine":"forward-mc","samples":%d`, benchWorlds)},
	} {
		m, err := benchWarmServe(g, serve.sample)
		if err != nil {
			return nil, err
		}
		traj.Metrics[serve.name] = m
	}

	traj.Derived["ris_sample_alloc_reduction"] = 1 - float64(traj.Metrics["ris_sample"].AllocsOp)/float64(traj.Metrics["ris_sample_unpooled_baseline"].AllocsOp)
	traj.Derived["ris_frame_compression"] = float64(traj.Sizes["ris_frame_v1_bytes"]) / float64(traj.Sizes["ris_frame_v2_bytes"])
	traj.Derived["worlds_frame_compression"] = float64(traj.Sizes["worlds_frame_v1_bytes"]) / float64(traj.Sizes["worlds_frame_v2_bytes"])
	traj.Derived["prefix_extend_speedup"] = float64(traj.Metrics["solve_cold_k50"].NsOp) / float64(traj.Metrics["solve_prefix_extend_k25_k50"].NsOp)
	traj.Derived["planner_batch_speedup"] = float64(traj.Metrics["planner_per_query_16"].NsOp) / float64(traj.Metrics["planner_batched_16"].NsOp)
	return traj, nil
}

// reweightDelta halves the probability of eight distinct existing arcs of
// g, picked with a fixed seed: the weight-only update a dynamic graph
// sees most.
func reweightDelta(g *graph.Graph) graph.Delta {
	offsets, targets := g.OutCSR()
	var d graph.Delta
	for _, pos := range xrand.New(1).Perm(len(targets))[:8] {
		from := graph.NodeID(sort.Search(g.N(), func(v int) bool { return int(offsets[v+1]) > pos }))
		_, probs := g.OutEdges(from)
		d.Edges = append(d.Edges, graph.EdgeDelta{From: from, To: targets[pos], P: probs[pos-int(offsets[from])] / 2})
	}
	return d
}

// plannerSpecs is the sustained-load planner mix: 16 concurrent queries
// over one warm sketch, a P1 and a P4 budget sweep with the heavy-tailed
// repetition a fleet of dashboard clients produces — a k-sweep
// {10,20,30,40,50} under a hot k=50 asked again and again. The planner
// coalesces each family onto one shared CELF run peeled at three budget
// boundaries; the per-query baseline pays all 16 greedy loops, so its
// cost grows with Σk while the batched cost grows with max k.
func plannerSpecs() []fairim.ProblemSpec {
	base := fairim.Config{
		Tau:            benchTau,
		Engine:         fairim.EngineRIS,
		Seed:           1,
		Parallelism:    1,
		ReportOnSample: true,
	}
	var specs []fairim.ProblemSpec
	for _, problem := range []fairim.Problem{fairim.P1, fairim.P4} {
		for _, k := range []int{10, 25, 50, 50, 50, 50, 50, 50} {
			specs = append(specs, fairim.ProblemSpec{
				Problem: problem, Budget: k,
				Sampling: fairim.Sampling{RISPerGroup: benchPool}, Config: base,
			})
		}
	}
	return specs
}

// benchPlanner measures the 16-query planner mix both ways — sequential
// per-query solves (the pre-planner serving path: shared sketch, fresh
// estimator and full greedy loop per query) against one SolveBatch —
// after first proving at runtime that the two paths return identical
// answers on this exact workload.
func benchPlanner(g *graph.Graph, col *ris.Collection, traj *Trajectory) error {
	specs := plannerSpecs()
	perQuery := func() ([]*fairim.Result, error) {
		out := make([]*fairim.Result, len(specs))
		for i, s := range specs {
			s.Config.Estimator = ris.NewEstimator(col)
			r, err := fairim.Solve(g, s)
			if err != nil {
				return nil, fmt.Errorf("planner baseline spec %d: %w", i, err)
			}
			out[i] = r
		}
		return out, nil
	}
	opts := &fairim.BatchOptions{
		Estimator: func(int, fairim.ProblemSpec) (estimator.Estimator, error) {
			return ris.NewEstimator(col), nil
		},
	}
	batched := func() ([]fairim.BatchOutcome, fairim.BatchReport) {
		return fairim.SolveBatch(g, specs, opts)
	}

	// Parity gate: the benchmark numbers are meaningless unless the
	// batched path answers every query bit-identically.
	base, err := perQuery()
	if err != nil {
		return err
	}
	outs, report := batched()
	if report.Singletons != 0 || report.Coalesced != len(specs) {
		return fmt.Errorf("planner mix did not fully coalesce: %d groups, %d singletons", report.Groups, report.Singletons)
	}
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("planner batched spec %d: %w", i, o.Err)
		}
		if fmt.Sprint(o.Result.Seeds) != fmt.Sprint(base[i].Seeds) {
			return fmt.Errorf("planner spec %d: batched seeds %v diverge from per-query %v", i, o.Result.Seeds, base[i].Seeds)
		}
		if o.Result.Total != base[i].Total || o.Result.Disparity != base[i].Disparity {
			return fmt.Errorf("planner spec %d: batched utilities diverge from per-query", i)
		}
	}

	traj.Metrics["planner_per_query_16"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := perQuery(); err != nil {
				b.Fatal(err)
			}
		}
	})
	traj.Metrics["planner_batched_16"] = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			outs, _ := batched()
			for _, o := range outs {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	})
	return nil
}

// benchWarmServe measures a repeat /v1/select on a warmed daemon: sample
// cached, prefix memoized, report from the sample — the steady-state
// serve path. sample holds the request's engine and sample-size fields.
func benchWarmServe(g *graph.Graph, sample string) (Metric, error) {
	reg := server.NewRegistry()
	if err := reg.RegisterGraph("twoblock", "synthetic:twoblock", g); err != nil {
		return Metric{}, err
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		return Metric{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := fmt.Sprintf(`{"graph":"twoblock","problem":"p4","budget":%d,"tau":%d,%s,"eval":"sample"}`,
		benchPrefixK, benchTau, sample)
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("select returned %s", resp.Status)
		}
		var sink json.RawMessage
		return json.NewDecoder(resp.Body).Decode(&sink)
	}
	if err := post(); err != nil { // warm the sample cache and prefix memo
		return Metric{}, err
	}
	var benchErr error
	m := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post(); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	return m, benchErr
}

// baselineRRSample mirrors the pre-pooling RR sampler byte for byte where
// it matters for allocation: every RR set allocates its own visited
// array, BFS queue, depth track and result slice. It exists so the
// pooled sampler's allocation win stays measurable after the code it
// replaced is gone (the same pattern bench_test.go uses for the CSR win).
func baselineRRSample(g *graph.Graph, tau int32, perGroup []int, seed int64) [][]graph.NodeID {
	root := xrand.New(seed)
	var sets [][]graph.NodeID
	flat := int64(0)
	for grp := 0; grp < g.NumGroups(); grp++ {
		pool := g.GroupMembers(grp)
		for i := 0; i < perGroup[grp]; i++ {
			rng := root.SplitN(flat)
			flat++
			rootNode := pool[rng.Intn(len(pool))]
			visited := make([]bool, g.N())
			queue := make([]graph.NodeID, 0, 16)
			depth := make([]int32, 0, 16)
			set := make([]graph.NodeID, 0, 16)
			visited[rootNode] = true
			queue = append(queue, rootNode)
			depth = append(depth, 0)
			set = append(set, rootNode)
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				d := depth[head]
				if d >= tau {
					continue
				}
				srcs := g.InNeighbors(v)
				thresh := g.InThresholds(v)
				for j, src := range srcs {
					if visited[src] {
						continue
					}
					if !rng.BernoulliT(thresh[j]) {
						continue
					}
					visited[src] = true
					queue = append(queue, src)
					depth = append(depth, d+1)
					set = append(set, src)
				}
			}
			sets = append(sets, set)
		}
	}
	return sets
}

// risV1Bytes is the exact size of the version-1 (group,index) pair layout
// for col: τ (4) + length-prefixed pool sizes (8 + 8·G) + node count (8)
// + per node a length prefix (8) and two int32s per reference.
func risV1Bytes(col *ris.Collection, g *graph.Graph) int64 {
	return int64(4 + 8 + 8*g.NumGroups() + 8 + 8*g.N() + 8*col.NumRefs())
}

// worldsV1Bytes is the exact size of the version-1 offsets+targets world
// layout: world count (8) + per world two length-prefixed int32 slices.
func worldsV1Bytes(worlds []*cascade.World, n int) int64 {
	total := int64(8)
	for _, w := range worlds {
		edges := 0
		for v := 0; v < n; v++ {
			edges += len(w.Out(graph.NodeID(v)))
		}
		total += 8 + 4*int64(n+1) + 8 + 4*int64(edges)
	}
	return total
}

func readTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}

// absoluteGates are the floors the optimization work claims, enforced on
// every run — writing a checkpoint that violates them is as much a
// failure as regressing against one.
func absoluteGates(t *Trajectory) []string {
	var errs []string
	if r := t.Derived["ris_sample_alloc_reduction"]; r < 0.25 {
		errs = append(errs, fmt.Sprintf("RR sampling allocs only %.1f%% below the unpooled baseline, want >=25%%", 100*r))
	}
	if c := t.Derived["ris_frame_compression"]; c < 2 {
		errs = append(errs, fmt.Sprintf("ris v2 frame only %.2fx smaller than v1, want >=2x", c))
	}
	if c := t.Derived["worlds_frame_compression"]; c < 2 {
		errs = append(errs, fmt.Sprintf("worlds v2 frame only %.2fx smaller than v1, want >=2x", c))
	}
	if s := t.Derived["prefix_extend_speedup"]; s <= 1 {
		errs = append(errs, fmt.Sprintf("prefix-extended solve %.2fx vs cold, want >1x", s))
	}
	if s := t.Derived["planner_batch_speedup"]; s < 5 {
		errs = append(errs, fmt.Sprintf("batched planner only %.2fx the per-query baseline on the 16-query mix, want >=5x", s))
	}
	return errs
}

// bytesGated reports whether a metric's bytes/op is gated beside its
// allocs/op: the graph_apply_delta* updates, the *_encode payload writers
// and the fresh report draw nothing from a pool, so their bytes are as
// fixed as their allocation counts.
func bytesGated(name string) bool {
	return strings.HasPrefix(name, "graph_apply_delta") || strings.HasSuffix(name, "_encode") || name == "fresh_report"
}

// compare gates the deterministic metrics against a committed checkpoint:
// allocs/op, frame sizes and the fixed solves' evaluation counts may grow
// at most 10% (allocs/op plus a small absolute slack so single-digit
// counts aren't flaky), and so may the bytes/op of the metrics bytesGated
// names. ns/op is never compared.
func compare(prev, cur *Trajectory) []string {
	const headroom = 1.10
	const slack = 16 // absolute allocs; keeps tiny counts from gating on noise
	var errs []string
	for name, p := range prev.Metrics {
		c, ok := cur.Metrics[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %q disappeared from the suite", name))
			continue
		}
		if float64(c.AllocsOp) > float64(p.AllocsOp)*headroom+slack {
			errs = append(errs, fmt.Sprintf("%s: %d allocs/op, checkpoint %d", name, c.AllocsOp, p.AllocsOp))
		}
		if bytesGated(name) && float64(c.BytesOp) > float64(p.BytesOp)*headroom {
			errs = append(errs, fmt.Sprintf("%s: %d bytes/op, checkpoint %d", name, c.BytesOp, p.BytesOp))
		}
	}
	for name, p := range prev.Sizes {
		c, ok := cur.Sizes[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("size %q disappeared from the suite", name))
			continue
		}
		if float64(c) > float64(p)*headroom {
			errs = append(errs, fmt.Sprintf("%s: %d bytes, checkpoint %d", name, c, p))
		}
	}
	for name, p := range prev.Evaluations {
		c, ok := cur.Evaluations[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("evaluation count %q disappeared from the suite", name))
			continue
		}
		if float64(c) > float64(p)*headroom {
			errs = append(errs, fmt.Sprintf("%s: %d evaluations, checkpoint %d", name, c, p))
		}
	}
	// Derived ratios are dimensionless (same-machine numerator and
	// denominator), so unlike raw ns/op they transfer across hardware
	// and are gated against the checkpoint. Alloc- and size-based ratios
	// are deterministic and get the same 10%; *_speedup ratios divide two
	// separately-timed measurements, whose run-to-run noise compounds, so
	// they gate at half the checkpoint — loose enough not to flake, tight
	// enough that losing the optimization (speedup collapsing toward 1x)
	// still fails. The absoluteGates floors remain the hard guarantee.
	for name, p := range prev.Derived {
		c, ok := cur.Derived[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("derived metric %q disappeared from the suite", name))
			continue
		}
		derate := 0.90
		if strings.HasSuffix(name, "_speedup") {
			derate = 0.50
		}
		if c < p*derate {
			errs = append(errs, fmt.Sprintf("%s: %.3f, checkpoint %.3f (below %.0f%%)", name, c, p, 100*derate))
		}
	}
	return errs
}
