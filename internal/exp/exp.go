// Package exp is the experiment harness: one registered experiment per
// table/figure in the paper (plus the ablations DESIGN.md calls out), each
// regenerating the corresponding rows or series as a text table. The
// experiment ids ("fig1", "fig4a", …, "abl-celf") match DESIGN.md §5, the
// cmd/experiments CLI and the root bench targets. Beyond the paper,
// "serve-cache" drives the persistent serving layer (internal/server)
// end-to-end, measuring cold-vs-warm sketch reuse and singleflight, and
// "accuracy" sweeps (ε,δ) targets through the unified fairim.Solve entry
// point to show what the stopping rules resolve them into.
//
// In the layering, exp is the top consumer: it builds graphs from
// internal/generate and internal/datasets, runs solvers and baselines
// through the estimator seam, and renders results via internal/stats.
package exp

import (
	"fmt"
	"io"
	"sort"

	"fairtcim/internal/fairim"
	"fairtcim/internal/graph"
	"fairtcim/internal/stats"
)

// Options control an experiment run.
type Options struct {
	Seed  int64 // master seed; every experiment derives sub-seeds from it
	Quick bool  // reduced samples/sizes for tests and benchmarks
	// Engine selects the estimation engine solvers run on (forward Monte
	// Carlo or RIS). Experiments whose diffusion model the RIS engine
	// cannot express (LT, delayed, discounted) fall back to forward MC.
	Engine fairim.Engine
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string // DESIGN.md experiment id, e.g. "fig4a"
	Title string // short human description
	Run   func(o Options) (*stats.Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// RunAndWrite runs the experiment and writes its table to w.
func RunAndWrite(e Experiment, o Options, w io.Writer) error {
	table, err := e.Run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return table.WriteText(w)
}

// pick returns quick when o.Quick, else full — the per-experiment knob for
// sample counts and sweep sizes.
func pick(o Options, full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// withBudget returns base posed as the budget problem p (P1 or P4) with
// seed budget b.
func withBudget(base fairim.ProblemSpec, p fairim.Problem, b int) fairim.ProblemSpec {
	base.Problem, base.Budget = p, b
	return base
}

// withQuota returns base posed as the cover problem p (P2 or P6) with
// coverage quota q.
func withQuota(base fairim.ProblemSpec, p fairim.Problem, q float64) fairim.ProblemSpec {
	base.Problem, base.Quota = p, q
	return base
}

// mostDisparatePair returns the two group indices with the largest
// normalized-utility gap in res — how the paper selects which two of the
// 4 (Rice) or 5 (SNAP) groups to plot.
func mostDisparatePair(res *fairim.Result) (int, int) {
	bi, bj, worst := 0, 0, -1.0
	for i := 0; i < len(res.NormPerGroup); i++ {
		for j := i + 1; j < len(res.NormPerGroup); j++ {
			d := res.NormPerGroup[i] - res.NormPerGroup[j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst, bi, bj = d, i, j
			}
		}
	}
	return bi, bj
}

// pairDisparity is |norm_i - norm_j| for a fixed group pair.
func pairDisparity(res *fairim.Result, i, j int) float64 {
	d := res.NormPerGroup[i] - res.NormPerGroup[j]
	if d < 0 {
		d = -d
	}
	return d
}

// traceRows renders two iteration traces (e.g. P2 vs P6) side by side,
// padding the shorter run with its final values, reporting the total and
// the two given groups' normalized utilities.
func traceRows(t *stats.Table, a, b *fairim.Result, gi, gj int, nA, nB string) {
	rows := len(a.Trace)
	if len(b.Trace) > rows {
		rows = len(b.Trace)
	}
	at := func(tr []fairim.IterationStat, i int) fairim.IterationStat {
		if i < len(tr) {
			return tr[i]
		}
		return tr[len(tr)-1]
	}
	_ = nA
	_ = nB
	for i := 0; i < rows; i++ {
		sa, sb := at(a.Trace, i), at(b.Trace, i)
		t.AddRow(fmt.Sprintf("iter=%d", i+1),
			sa.Total, sa.NormGroup[gi], sa.NormGroup[gj],
			sb.Total, sb.NormGroup[gi], sb.NormGroup[gj])
	}
}

// sortedCandidates returns a deterministic candidate subset of size k
// (ascending ids) drawn without replacement — used where the paper
// restricts seed candidates (Instagram, §7.1).
func sortedCandidates(g *graph.Graph, k int, pickIdx []int) []graph.NodeID {
	if k >= g.N() {
		return g.Nodes()
	}
	out := make([]graph.NodeID, len(pickIdx))
	for i, v := range pickIdx {
		out[i] = graph.NodeID(v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
