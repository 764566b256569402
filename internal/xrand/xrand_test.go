package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(7).Split()
	b := New(7).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split children diverged at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams look correlated: %d collisions", same)
	}
}

func TestSplitNStable(t *testing.T) {
	parent := New(9)
	a := parent.SplitN(5)
	// SplitN must not advance the parent: deriving child 5 again yields the
	// same stream.
	b := parent.SplitN(5)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("SplitN not stable at step %d", i)
		}
	}
}

// TestSplitNPinned pins the first two outputs of SplitN children: every
// sampler derives item i's stream from SplitN(i), so a change here moves
// every sampled world and RR set.
func TestSplitNPinned(t *testing.T) {
	for _, c := range []struct {
		seed, n     int64
		first, next uint64
	}{
		{0, 0, 0x98e61d37916ef922, 0x2a1f5373d536b577},
		{0, 1000, 0xd11c7dcde1850b4d, 0xd262185a47f2de1f},
		{1, 1, 0x56b7d12de567dd2d, 0xfd149563802d7543},
		{1, 1 << 40, 0x6f3580e71e43c68c, 0x86ef2e548048b3f0},
		{42, 2, 0xac3432231919d5ae, 0x525d09fd76149eea},
		{-7, -3, 0xe287812c68eda2ab, 0x5a1b5297b73669e2},
	} {
		child := New(c.seed).SplitN(c.n)
		if first, next := child.Uint64(), child.Uint64(); first != c.first || next != c.next {
			t.Errorf("New(%d).SplitN(%d) yields %#x, %#x; want %#x, %#x", c.seed, c.n, first, next, c.first, c.next)
		}
	}
}

// TestAtMatchesStream: At(k) is the value the Uint64 call after k others
// returns, on generators from New, from Split and from SplitN children
// (the per-world streams of the samplers), and reading it advances
// nothing.
func TestAtMatchesStream(t *testing.T) {
	meta := New(3)
	for trial := range 20 {
		seed := int64(meta.Uint64())
		var r *RNG
		switch trial % 3 {
		case 0:
			r = New(seed)
		case 1:
			r = New(seed).Split()
		default:
			r = New(seed).SplitN(int64(meta.Uint64() >> 1))
		}
		seq := *r
		for k := range uint64(300) {
			if got, want := r.At(k), seq.Uint64(); got != want {
				t.Fatalf("trial %d: At(%d) = %#x, the stream's value is %#x", trial, k, got, want)
			}
		}
		before := *r
		r.At(12345)
		if *r != before {
			t.Fatalf("trial %d: At advanced the generator", trial)
		}
	}
}

// TestSplitNAllocatesNothing: a child the caller keeps local stays on the
// stack, so deriving one per sampled item costs no allocation.
func TestSplitNAllocatesNothing(t *testing.T) {
	parent := New(5)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := range int64(64) {
			child := parent.SplitN(i)
			sink += child.Uint64() + uint64(child.Intn(10))
		}
	})
	if allocs != 0 {
		t.Fatalf("SplitN allocated %v times per 64 children, want 0", allocs)
	}
	_ = sink
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn(10) value %d count %d far from uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(2)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	check := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleUniform(t *testing.T) {
	// Each element of [0,20) should appear in a 5-of-20 sample about 1/4 of
	// the time.
	r := New(123)
	counts := make([]int, 20)
	const trials = 40000
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(20, 5) {
			counts[v]++
		}
	}
	for v, c := range counts {
		rate := float64(c) / trials
		if math.Abs(rate-0.25) > 0.02 {
			t.Fatalf("Sample uniformity: element %d rate %v", v, rate)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(77)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.25)
	}
	mean := float64(sum) / n
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("Geometric(0.25) mean %v, want ~4", mean)
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(1)
	for i := 0; i < 10; i++ {
		if g := r.Geometric(1); g != 1 {
			t.Fatalf("Geometric(1) = %d", g)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestShuffle(t *testing.T) {
	r := New(4)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make([]bool, 8)
	for _, v := range s {
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("shuffle lost element %d", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func TestBernoulliTMatchesBernoulli(t *testing.T) {
	// For p strictly inside (0,1) both consume one draw per trial, so the
	// same seed must yield identical accept/reject sequences.
	for _, p := range []float64{1e-9, 0.01, 0.3, 0.5, 0.7, 0.9999999} {
		a, b := New(42), New(42)
		th := Threshold53(p)
		for i := 0; i < 20000; i++ {
			if x, y := a.Bernoulli(p), b.BernoulliT(th); x != y {
				t.Fatalf("p=%v trial %d: Bernoulli=%v BernoulliT=%v", p, i, x, y)
			}
		}
	}
}

func TestThreshold53Extremes(t *testing.T) {
	if Threshold53(0) != 0 || Threshold53(-1) != 0 {
		t.Fatal("p<=0 must map to threshold 0")
	}
	if Threshold53(1) != 1<<53 || Threshold53(2) != 1<<53 {
		t.Fatal("p>=1 must map to threshold 2^53")
	}
	r := New(7)
	for i := 0; i < 1000; i++ {
		if r.BernoulliT(0) {
			t.Fatal("BernoulliT(0) returned true")
		}
		if !r.BernoulliT(1 << 53) {
			t.Fatal("BernoulliT(2^53) returned false")
		}
	}
}

func BenchmarkBernoulli(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Bernoulli(0.3)
	}
}

func BenchmarkBernoulliT(b *testing.B) {
	r := New(1)
	th := Threshold53(0.3)
	for i := 0; i < b.N; i++ {
		_ = r.BernoulliT(th)
	}
}
