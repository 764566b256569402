// Package concave provides the monotone concave wrapper functions H used
// by the FairTCIM-Budget surrogate (problem P4): the objective
// Σᵢ H(fτ(S;Vᵢ)) rewards influencing under-represented groups because the
// marginal value of influence is larger where influence is currently
// smaller. The curvature of H is the paper's knob trading total influence
// against disparity (§5.1.2, Theorem 1).
package concave

import (
	"fmt"
	"math"
)

// Function is a non-negative, non-decreasing, concave function on [0, ∞).
// Implementations must satisfy Eval(0) >= 0, monotonicity, and concavity;
// the package's property tests check all three for every built-in.
type Function interface {
	// Eval returns H(z) for z >= 0.
	Eval(z float64) float64
	// Name is a short identifier used in reports ("log", "sqrt", ...).
	Name() string
}

// Identity is H(z) = z: zero curvature, reduces P4 to the unfair P1.
type Identity struct{}

// Eval returns z.
func (Identity) Eval(z float64) float64 { return z }

// Name returns "id".
func (Identity) Name() string { return "id" }

// Log is H(z) = log(1 + z). The paper writes log(z); the +1 shift keeps H
// finite and non-negative at z = 0 (an uninfluenced group) without
// affecting monotonicity, concavity, or the diminishing-returns behaviour
// that drives fairness. This is the highest-curvature built-in.
type Log struct{}

// Eval returns log(1 + z).
func (Log) Eval(z float64) float64 { return math.Log1p(z) }

// Name returns "log".
func (Log) Name() string { return "log" }

// Sqrt is H(z) = √z: lower curvature than Log, so less disparity reduction
// at less total-influence cost (Figure 4a).
type Sqrt struct{}

// Eval returns √z.
func (Sqrt) Eval(z float64) float64 { return math.Sqrt(z) }

// Name returns "sqrt".
func (Sqrt) Name() string { return "sqrt" }

// Power is H(z) = z^Alpha for Alpha in (0, 1]: a curvature dial between
// Identity (Alpha = 1) and ever-stronger fairness pressure as Alpha → 0.
// Used by the curvature-ablation experiment.
type Power struct{ Alpha float64 }

// Eval returns z^Alpha.
func (p Power) Eval(z float64) float64 { return math.Pow(z, p.Alpha) }

// Name returns "pow<Alpha>".
func (p Power) Name() string { return fmt.Sprintf("pow%.2f", p.Alpha) }

// Validate reports whether p.Alpha is in (0, 1]; NaN is not.
func (p Power) Validate() error {
	if !(p.Alpha > 0 && p.Alpha <= 1) {
		return fmt.Errorf("concave: Power alpha %v outside (0,1]", p.Alpha)
	}
	return nil
}

// Scaled multiplies another concave function by a positive weight; the
// paper mentions increasing the weights λ of under-represented groups as an
// alternative fairness lever (§6.2.1).
type Scaled struct {
	Weight float64
	Inner  Function
}

// Eval returns Weight * Inner(z).
func (s Scaled) Eval(z float64) float64 { return s.Weight * s.Inner.Eval(z) }

// Name returns "<weight>*<inner>".
func (s Scaled) Name() string { return fmt.Sprintf("%g*%s", s.Weight, s.Inner.Name()) }

// Saturated truncates another concave function at a cap: H(z) =
// Inner(min(z, Cap)). Truncation preserves monotonicity (non-strict) and
// concavity, so the P4 machinery and its guarantees still apply. Combined
// with per-group weights it yields a "budgeted parity" objective: the
// optimizer stops investing in a group once it reaches the cap, the
// budget-constrained analogue of FairTCIM-Cover's per-group quota.
type Saturated struct {
	Cap   float64
	Inner Function
}

// Eval returns Inner(min(z, Cap)).
func (s Saturated) Eval(z float64) float64 {
	if z > s.Cap {
		z = s.Cap
	}
	return s.Inner.Eval(z)
}

// Name returns "sat<Cap>(<inner>)".
func (s Saturated) Name() string { return fmt.Sprintf("sat%g(%s)", s.Cap, s.Inner.Name()) }

// ByName resolves the report identifiers used on the command line:
// "id", "log", "sqrt", or "pow<alpha>" (e.g. "pow0.25").
func ByName(name string) (Function, error) {
	switch name {
	case "id", "identity", "linear":
		return Identity{}, nil
	case "log":
		return Log{}, nil
	case "sqrt":
		return Sqrt{}, nil
	}
	var alpha float64
	if _, err := fmt.Sscanf(name, "pow%f", &alpha); err == nil {
		p := Power{Alpha: alpha}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("concave: unknown function %q", name)
}
