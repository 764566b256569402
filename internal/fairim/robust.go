package fairim

import (
	"fmt"

	"fairtcim/internal/graph"
	"fairtcim/internal/influence"
	"fairtcim/internal/xrand"
)

// Robust evaluation: the related-work setting of Rahmattalabi et al.
// (NeurIPS 2019), where chosen seeds can fail to activate (a peer leader
// drops out of the program). Our solvers assume deterministic seed
// activation, as the paper does (§2, difference ii); this evaluator
// measures how a solution degrades when that assumption breaks, which is
// the natural robustness audit for deployments.

// RobustResult reports the dropout audit.
type RobustResult struct {
	DropProb     float64   // independent per-seed failure probability
	Trials       int       // dropout patterns sampled
	MeanTotal    float64   // mean fτ(S';V) over surviving subsets S'
	MeanPerGroup []float64 // mean fτ(S';Vᵢ)
	MeanDisp     float64   // mean Eq. 2 disparity across trials
	WorstDisp    float64   // worst-case disparity seen
}

// EvaluateSeedsRobust estimates the expected utility and disparity of a
// seed set when each seed independently fails with probability dropProb.
// Each trial samples a surviving subset and evaluates it on the spec's
// fresh report worlds (sub-seeded deterministically from spec.Seed), as
// Evaluate would; spec.Problem and the constraint fields are ignored.
func EvaluateSeedsRobust(g *graph.Graph, seeds []graph.NodeID, spec ProblemSpec, dropProb float64, trials int) (*RobustResult, error) {
	cfg, _, err := spec.resolve(g, len(seeds), resolveEvalFresh)
	if err != nil {
		return nil, err
	}
	if dropProb < 0 || dropProb >= 1 {
		return nil, fmt.Errorf("fairim: drop probability %v outside [0,1)", dropProb)
	}
	if trials <= 0 {
		return nil, fmt.Errorf("fairim: need positive trials")
	}
	for _, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("fairim: seed %d out of range", v)
		}
	}
	rng := xrand.New(cfg.Seed + 7919)
	out := &RobustResult{
		DropProb:     dropProb,
		Trials:       trials,
		MeanPerGroup: make([]float64, g.NumGroups()),
	}
	surviving := make([]graph.NodeID, 0, len(seeds))
	for trial := 0; trial < trials; trial++ {
		surviving = surviving[:0]
		for _, s := range seeds {
			if !rng.Bernoulli(dropProb) {
				surviving = append(surviving, s)
			}
		}
		tcfg := cfg
		tcfg.Seed = cfg.Seed + int64(trial)*104729
		perGroup, err := tcfg.estimate(g, surviving)
		if err != nil {
			return nil, err
		}
		norm := make([]float64, len(perGroup))
		for i, u := range perGroup {
			out.MeanTotal += u
			out.MeanPerGroup[i] += u
			norm[i] = u / float64(g.GroupSize(i))
		}
		d := influence.Disparity(norm)
		out.MeanDisp += d
		if d > out.WorstDisp {
			out.WorstDisp = d
		}
	}
	out.MeanTotal /= float64(trials)
	out.MeanDisp /= float64(trials)
	for i := range out.MeanPerGroup {
		out.MeanPerGroup[i] /= float64(trials)
	}
	return out, nil
}
