package concave

import (
	"math"
	"testing"
	"testing/quick"
)

func builtins() []Function {
	return []Function{Identity{}, Log{}, Sqrt{}, Power{Alpha: 0.25}, Power{Alpha: 0.75},
		Scaled{Weight: 2, Inner: Log{}},
		Saturated{Cap: 100, Inner: Log{}},
		Saturated{Cap: 5, Inner: Identity{}}}
}

// positive maps an arbitrary float to a well-behaved non-negative value.
func positive(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(math.Abs(x), 1e6)
}

func TestNonNegativeAtZero(t *testing.T) {
	for _, h := range builtins() {
		if v := h.Eval(0); v < 0 || math.IsNaN(v) {
			t.Fatalf("%s(0) = %v", h.Name(), v)
		}
	}
}

func TestMonotone(t *testing.T) {
	for _, h := range builtins() {
		h := h
		check := func(xr, yr float64) bool {
			x, y := positive(xr), positive(yr)
			if x > y {
				x, y = y, x
			}
			return h.Eval(x) <= h.Eval(y)+1e-12
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s not monotone: %v", h.Name(), err)
		}
	}
}

func TestConcave(t *testing.T) {
	// Midpoint concavity: H((x+y)/2) >= (H(x)+H(y))/2.
	for _, h := range builtins() {
		h := h
		check := func(xr, yr float64) bool {
			x, y := positive(xr), positive(yr)
			mid := h.Eval((x + y) / 2)
			avg := (h.Eval(x) + h.Eval(y)) / 2
			return mid >= avg-1e-9
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s not concave: %v", h.Name(), err)
		}
	}
}

func TestDiminishingReturns(t *testing.T) {
	// The fairness mechanism (paper Fig. 2): the same absolute gain is worth
	// more to a group with lower current influence.
	for _, h := range []Function{Log{}, Sqrt{}, Power{Alpha: 0.5}} {
		low := h.Eval(10+5) - h.Eval(10)
		high := h.Eval(100+5) - h.Eval(100)
		if low <= high {
			t.Fatalf("%s: gain at 10 (%v) not greater than at 100 (%v)", h.Name(), low, high)
		}
	}
}

func TestIdentityHasNoPreference(t *testing.T) {
	h := Identity{}
	if d := (h.Eval(15) - h.Eval(10)) - (h.Eval(105) - h.Eval(100)); math.Abs(d) > 1e-12 {
		t.Fatal("identity should be curvature-free")
	}
}

func TestCurvatureOrdering(t *testing.T) {
	// log curves harder than sqrt: relative marginal value at large z decays
	// faster. Compare normalized gains.
	logGain := func(z float64) float64 { return Log{}.Eval(z+1) - Log{}.Eval(z) }
	sqrtGain := func(z float64) float64 { return Sqrt{}.Eval(z+1) - Sqrt{}.Eval(z) }
	// Ratio of gain at z=1 vs z=400.
	logRatio := logGain(1) / logGain(400)
	sqrtRatio := sqrtGain(1) / sqrtGain(400)
	if logRatio <= sqrtRatio {
		t.Fatalf("log ratio %v should exceed sqrt ratio %v", logRatio, sqrtRatio)
	}
}

func TestPowerValidate(t *testing.T) {
	if (Power{Alpha: 0.5}).Validate() != nil {
		t.Fatal("valid alpha rejected")
	}
	for _, a := range []float64{0, -1, 1.5, math.NaN()} {
		if (Power{Alpha: a}).Validate() == nil {
			t.Fatalf("alpha %v accepted", a)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"id": "id", "identity": "id", "linear": "id",
		"log": "log", "sqrt": "sqrt", "pow0.25": "pow0.25",
	} {
		h, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if h.Name() != want {
			t.Fatalf("ByName(%q).Name() = %q", name, h.Name())
		}
	}
	for _, name := range []string{"", "cube", "pow0", "pow2", "powNaN"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%q) accepted", name)
		}
	}
}

func TestSaturated(t *testing.T) {
	s := Saturated{Cap: 10, Inner: Identity{}}
	if s.Eval(3) != 3 {
		t.Fatalf("below cap: %v", s.Eval(3))
	}
	if s.Eval(15) != 10 {
		t.Fatalf("above cap: %v", s.Eval(15))
	}
	if s.Eval(10) != 10 {
		t.Fatalf("at cap: %v", s.Eval(10))
	}
	if s.Name() != "sat10(id)" {
		t.Fatalf("name: %q", s.Name())
	}
	// No marginal value beyond the cap: the budgeted-parity mechanism.
	if gain := s.Eval(12) - s.Eval(11); gain != 0 {
		t.Fatalf("gain beyond cap %v", gain)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Weight: 3, Inner: Identity{}}
	if s.Eval(2) != 6 {
		t.Fatalf("Scaled.Eval = %v", s.Eval(2))
	}
	if s.Name() != "3*id" {
		t.Fatalf("Scaled.Name = %q", s.Name())
	}
}
