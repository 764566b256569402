package cascade

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

func TestDelayDistributions(t *testing.T) {
	rng := xrand.New(1)
	if d := (UnitDelay{}).Sample(rng); d != 1 {
		t.Fatalf("unit delay %d", d)
	}
	// Geometric mean 1/M.
	sum := 0.0
	const n = 50000
	gd := GeometricDelay{M: 0.2}
	for i := 0; i < n; i++ {
		sum += float64(gd.Sample(rng))
	}
	if mean := sum / n; math.Abs(mean-5) > 0.1 {
		t.Fatalf("geometric mean %v, want ~5", mean)
	}
	// Uniform within range.
	ud := UniformDelay{Min: 2, Max: 4}
	seen := map[int32]bool{}
	for i := 0; i < 1000; i++ {
		d := ud.Sample(rng)
		if d < 2 || d > 4 {
			t.Fatalf("uniform delay %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform delay support %v", seen)
	}
	if (UniformDelay{Min: 3, Max: 3}).Sample(rng) != 3 {
		t.Fatal("degenerate uniform")
	}
	// Discretized exponential: support >= 1, mean ≈ 1/rate + 1/2.
	ed := ExponentialDelay{Rate: 0.5}
	sum = 0
	for i := 0; i < 50000; i++ {
		d := ed.Sample(rng)
		if d < 1 {
			t.Fatalf("exponential delay %d < 1", d)
		}
		sum += float64(d)
	}
	if mean := sum / 50000; math.Abs(mean-2.5) > 0.1 {
		t.Fatalf("exponential mean %v, want ~2.5", mean)
	}
	for _, d := range []DelayDist{UnitDelay{}, gd, ud, ed} {
		if d.Name() == "" {
			t.Fatal("empty delay name")
		}
	}
}

func TestExponentialDelayBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	ExponentialDelay{Rate: 0}.Sample(xrand.New(1))
}

func TestSampleDelayedWorldUnitEqualsIC(t *testing.T) {
	// With unit delays, the weighted world machinery must agree with the
	// plain IC world BFS for the same structure.
	g := pathGraph(6, 1.0)
	ww := SampleDelayedWorld(g, UnitDelay{}, xrand.New(1))
	dist := ReachableDelayed(ww, []graph.NodeID{0}, 3, nil)
	want := []int32{0, 1, 2, 3, NotActivated, NotActivated}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestReachableDelayedShortestPath(t *testing.T) {
	// Diamond with asymmetric delays: 0->1 (delay 1), 1->3 (delay 1),
	// 0->2 (delay 1), 2->3 (delay 5). Shortest to 3 is 2.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ww := &WeightedWorld{
		offsets: []int32{0, 2, 3, 4, 4},
		targets: []graph.NodeID{1, 2, 3, 3},
		delays:  []int32{1, 1, 1, 5},
	}
	_ = g
	dist := ReachableDelayed(ww, []graph.NodeID{0}, 100, nil)
	if dist[3] != 2 {
		t.Fatalf("dist[3] = %d, want 2", dist[3])
	}
	// Tight deadline cuts the long branch.
	dist = ReachableDelayed(ww, []graph.NodeID{0}, 1, nil)
	if dist[3] != NotActivated || dist[1] != 1 || dist[2] != 1 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestReachableDelayedScratchReuse(t *testing.T) {
	g := pathGraph(4, 1.0)
	ww := SampleDelayedWorld(g, UnitDelay{}, xrand.New(1))
	scratch := make([]int32, 4)
	out := ReachableDelayed(ww, []graph.NodeID{0}, NoDeadline, scratch)
	if &out[0] != &scratch[0] {
		t.Fatal("scratch not reused")
	}
	out2 := ReachableDelayed(ww, []graph.NodeID{3}, NoDeadline, scratch)
	if out2[0] != NotActivated {
		t.Fatalf("stale scratch: %v", out2)
	}
}

func TestSampleDelayedWorldsDeterministic(t *testing.T) {
	g := pathGraph(100, 0.5)
	a := SampleDelayedWorlds(g, GeometricDelay{M: 0.5}, 10, 3, 1)
	b := SampleDelayedWorlds(g, GeometricDelay{M: 0.5}, 10, 3, 4)
	for i := range a {
		if a[i].M() != b[i].M() {
			t.Fatalf("world %d size differs across parallelism", i)
		}
		for e := range a[i].delays {
			if a[i].delays[e] != b[i].delays[e] || a[i].targets[e] != b[i].targets[e] {
				t.Fatalf("world %d edge %d differs", i, e)
			}
		}
	}
}

func TestRunICMDeadlineZero(t *testing.T) {
	g := pathGraph(3, 1.0)
	times := RunICM(g, []graph.NodeID{0}, 0, 0.5, xrand.New(1))
	if times[0] != 0 || times[1] != NotActivated {
		t.Fatalf("times = %v", times)
	}
}

func TestRunICMMeetingDelaysSlowSpread(t *testing.T) {
	// On a p=1 path, IC reaches node τ at time τ; IC-M with m=0.3 has mean
	// delay ~3.3 per hop, so within the same deadline far fewer nodes
	// activate.
	g := pathGraph(30, 1.0)
	rng := xrand.New(5)
	const tau = 10
	const reps = 400
	icCount, icmCount := 0, 0
	for r := 0; r < reps; r++ {
		for _, tv := range RunIC(g, []graph.NodeID{0}, tau, rng) {
			if tv >= 0 && tv <= tau {
				icCount++
			}
		}
		for _, tv := range RunICM(g, []graph.NodeID{0}, tau, 0.3, rng) {
			if tv >= 0 && tv <= tau {
				icmCount++
			}
		}
	}
	if icmCount >= icCount {
		t.Fatalf("IC-M spread %d not slower than IC %d", icmCount, icCount)
	}
	// With m=1, IC-M degenerates to IC exactly (p=1 path: deterministic).
	times := RunICM(g, []graph.NodeID{0}, tau, 1, rng)
	for i := 0; i <= tau; i++ {
		if times[i] != int32(i) {
			t.Fatalf("m=1 IC-M times = %v", times[:tau+1])
		}
	}
}

func TestRunICMMatchesDelayedWorlds(t *testing.T) {
	// Distributional equivalence: direct IC-M simulation vs weighted
	// live-edge worlds with geometric delays.
	rng := xrand.New(9)
	n := 30
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bernoulli(0.12) {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j), 0.4)
			}
		}
	}
	g := b.MustBuild()
	seeds := []graph.NodeID{0, 1}
	const tau = 5
	const m = 0.5
	const reps = 5000

	direct := 0.0
	r1 := xrand.New(11)
	for r := 0; r < reps; r++ {
		for _, tv := range RunICM(g, seeds, tau, m, r1) {
			if tv >= 0 && tv <= tau {
				direct++
			}
		}
	}
	direct /= reps

	worlds := SampleDelayedWorlds(g, GeometricDelay{M: m}, reps, 13, 0)
	viaWorlds := 0.0
	scratch := make([]int32, n)
	for _, w := range worlds {
		for _, d := range ReachableDelayed(w, seeds, tau, scratch) {
			if d >= 0 && d <= tau {
				viaWorlds++
			}
		}
	}
	viaWorlds /= reps

	if math.Abs(direct-viaWorlds) > 0.3 {
		t.Fatalf("direct IC-M %v vs delayed worlds %v", direct, viaWorlds)
	}
}

func TestDelayedMonotoneInTau(t *testing.T) {
	check := func(seed int64) bool {
		g := pathGraph(20, 0.8)
		w := SampleDelayedWorld(g, GeometricDelay{M: 0.4}, xrand.New(seed))
		prev := -1
		for _, tau := range []int32{0, 2, 5, 10, NoDeadline} {
			count := 0
			for _, d := range ReachableDelayed(w, []graph.NodeID{0}, tau, nil) {
				if d >= 0 && d <= tau {
					count++
				}
			}
			if count < prev {
				return false
			}
			prev = count
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDistHeapPopsInOrder pushes and pops heavily tied times in random
// interleavings: every pop must return a minimum of what is queued.
func TestDistHeapPopsInOrder(t *testing.T) {
	rng := xrand.New(4)
	var h DistHeap
	var queued []int32 // multiset of queued times, unordered
	for step := 0; step < 2000; step++ {
		if len(h) > 0 && rng.Intn(2) == 0 {
			it := h.Pop()
			low := 0
			for i, d := range queued {
				if d < queued[low] {
					low = i
				}
			}
			if it.D != queued[low] {
				t.Fatalf("step %d: popped %d, minimum queued %d", step, it.D, queued[low])
			}
			queued = append(queued[:low], queued[low+1:]...)
			continue
		}
		d := rng.Int31n(6)
		h.Push(DistItem{Node: graph.NodeID(step), D: d})
		queued = append(queued, d)
	}
	if len(h) != len(queued) {
		t.Fatalf("heap holds %d items, want %d", len(h), len(queued))
	}
}

// TestDelayedSearchesPinned pins RunICM's and ReachableDelayed's outputs
// bit for bit on a random graph. RunICM draws each influence coin when it
// pops a meeting from its frontier heap, so the pin also fails if the
// heap's sift order, which decides how tied meetings surface, ever leaves
// container/heap's.
func TestDelayedSearchesPinned(t *testing.T) {
	rng := xrand.New(21)
	const n = 60
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bernoulli(0.08) {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j), 0.5)
			}
		}
	}
	g := b.MustBuild()
	seeds := []graph.NodeID{0, 1, 2}
	const tau = 12
	h := fnv.New64a()
	record := func(times []int32) {
		for _, tv := range times {
			binary.Write(h, binary.LittleEndian, tv)
		}
	}
	sim := xrand.New(3)
	for r := 0; r < 200; r++ {
		record(RunICM(g, seeds, tau, 0.4, sim))
	}
	if got, want := h.Sum64(), uint64(0x39b080f02a799db3); got != want {
		t.Errorf("RunICM outcomes hash %#x, want %#x", got, want)
	}
	h.Reset()
	for _, w := range SampleDelayedWorlds(g, GeometricDelay{M: 0.4}, 50, 5, 0) {
		record(ReachableDelayed(w, seeds, tau, nil))
	}
	if got, want := h.Sum64(), uint64(0x67932153449c20e7); got != want {
		t.Errorf("ReachableDelayed distances hash %#x, want %#x", got, want)
	}
}
