// Package submodular is a generic toolbox for maximizing monotone
// submodular set functions, the structure both TCIM problems rely on
// (paper §3.4): greedy with the (1 − 1/e) guarantee under a cardinality
// constraint, the lazy-evaluation (CELF) variant that exploits
// submodularity to skip re-evaluations, greedy submodular cover with the
// ln(1 + |V|) guarantee, and a brute-force oracle for tests and the tiny
// Figure-1 instance.
//
// Every greedy here picks by one total order: the higher gain, then the
// lower node ID. So on an exact objective CELF returns the plain greedy's
// seeds and values whatever the candidate order, cold or resumed from a
// snapshot, and it can drop every candidate whose gain is ≤ 0 — such a
// candidate never gains again and never outranks one that does.
package submodular

import (
	"errors"
	"fmt"

	"fairtcim/internal/graph"
)

// Objective is a monotone submodular set function with incremental state:
// the "current set" grows via Add. Gain must return the exact marginal
// value of adding v to the current set; Value returns the function value of
// the current set.
//
// Implementations are typically expensive to query, which is why the
// optimizers below count evaluations.
type Objective interface {
	Gain(v graph.NodeID) float64
	Add(v graph.NodeID)
	Value() float64
}

// Stopper is an optional Objective extension: after every Add, the
// optimizers poll Stopped and abort with its error when non-nil,
// returning the partial Result alongside it. This is the cooperative
// cancellation seam — an objective that observes an external cancel
// signal (e.g. fairim.Config.Cancel) latches it here, and the greedy
// loop stops between picks instead of running to completion.
type Stopper interface {
	Stopped() error
}

// stopped polls the optional Stopper extension.
func stopped(obj Objective) error {
	if s, ok := obj.(Stopper); ok {
		return s.Stopped()
	}
	return nil
}

// Result reports the outcome of an optimizer run.
type Result struct {
	Seeds       []graph.NodeID
	Values      []float64 // objective value after each pick
	Evaluations int       // number of Gain calls
	// EvalsAt[i] is Evaluations as of the moment Seeds[i] was committed —
	// the cumulative Gain calls a run stopping after pick i+1 would have
	// spent. Because a lazy-greedy run at budget k performs exactly the
	// first k picks (and the evaluations leading to them) of any
	// larger-budget run over the same objective, EvalsAt lets one shared
	// run answer every smaller budget with the Evaluations count the
	// smaller run would itself have reported (see fairim.SolveBatch).
	EvalsAt []int
}

// GreedyMax runs the classical greedy: B rounds, each scanning every
// remaining candidate and picking the highest gain, the lower node ID on a
// tie, so the picks do not depend on the candidate order. It exists mostly
// as the ablation baseline for CELF; both return identical seeds and
// values on exact objectives.
func GreedyMax(obj Objective, candidates []graph.NodeID, budget int) (Result, error) {
	if budget < 0 {
		return Result{}, fmt.Errorf("submodular: negative budget %d", budget)
	}
	var res Result
	if err := stopped(obj); err != nil {
		return res, err
	}
	remaining := append([]graph.NodeID(nil), candidates...)
	for len(res.Seeds) < budget && len(remaining) > 0 {
		bestIdx, best := -1, LazyItem{}
		for i, v := range remaining {
			it := LazyItem{Node: v, Gain: obj.Gain(v)}
			res.Evaluations++
			if bestIdx == -1 || outranks(it, best) {
				bestIdx, best = i, it
			}
		}
		if best.Gain <= 0 {
			break // monotone objective exhausted; extra seeds are useless
		}
		v := best.Node
		obj.Add(v)
		res.Seeds = append(res.Seeds, v)
		res.Values = append(res.Values, obj.Value())
		res.EvalsAt = append(res.EvalsAt, res.Evaluations)
		if err := stopped(obj); err != nil {
			return res, err
		}
		remaining[bestIdx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return res, nil
}

// LazyItem is a candidate with a possibly stale upper bound on its gain —
// one entry of a CELF heap. Exported so a finished run's heap can be
// snapshotted and resumed (see LazyGreedyMaxCapture). The two 4-byte
// fields come first so an item packs into 16 bytes.
type LazyItem struct {
	Node  graph.NodeID
	Round int32 // the pick-round in which Gain was computed
	Gain  float64
}

// LazySnapshot is the complete CELF state after a run: the heap (in valid
// heap order) and the number of committed picks. The heap holds only
// candidates whose last evaluated gain was positive; no other candidate
// can ever be picked. Because the heap after k picks is a function of the
// objective and those k picks only — not of the eventual budget — a
// snapshot from a budget-k run is bit-identical to a larger run's state at
// pick k, so resuming it extends the solution exactly as the larger cold
// run would have continued. Snapshots are immutable once captured; Resume
// copies before mutating, so one snapshot can serve any number of
// extensions.
type LazySnapshot struct {
	Items []LazyItem
	Round int
}

// outranks reports whether a comes before b in CELF's order: the higher
// gain first, and on equal gains the lower node ID. The order is total
// over distinct nodes, so which candidate a run picks never depends on
// where an item sits in the heap array, nor on the candidate order.
func outranks(a, b LazyItem) bool {
	return a.Gain > b.Gain || a.Gain == b.Gain && a.Node < b.Node
}

// celfHeap is a max-heap of LazyItems in outranks order. Its sift steps
// are container/heap's; being typed, it moves items without boxing each
// one in an interface.
type celfHeap []LazyItem

func (h celfHeap) less(i, j int) bool { return outranks(h[i], h[j]) }

// init establishes the heap invariant (container/heap.Init).
func (h celfHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push adds it to the heap (container/heap.Push).
func (h *celfHeap) push(it LazyItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the item that outranks every other
// (container/heap.Pop).
func (h *celfHeap) pop() LazyItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h celfHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h celfHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// LazyGreedyMax runs CELF (Leskovec et al. 2007): because marginal gains
// only shrink as the set grows, a stale gain is an upper bound, so the
// top-of-heap candidate whose gain is current can be added without
// re-scanning everyone. The heap and the accept test share GreedyMax's
// total order (higher gain, then lower node ID), so on exact objectives
// the seeds and values are GreedyMax's whatever the candidate order, cold
// or captured and resumed, typically with far fewer Gain calls. Under that
// order a candidate whose gain falls to ≤ 0 can never be picked, so CELF
// drops it, from the first pass on.
func LazyGreedyMax(obj Objective, candidates []graph.NodeID, budget int) (Result, error) {
	res, _, err := LazyGreedyMaxCapture(obj, candidates, budget, nil)
	return res, err
}

// LazyGreedyMaxCapture is LazyGreedyMax with optionally precomputed
// initial gains (initial[i] = obj.Gain(candidates[i]) on the current set,
// letting callers parallelize the expensive first pass; nil computes them
// here) that additionally returns the final CELF state, so a later call
// can extend the run to a larger budget without redoing the committed
// picks (seed-set prefix memoization). The snapshot is nil when the run
// ended before its budget — error, exhausted candidates, or zero best gain
// — because such a run has nothing useful to extend; a run that fills its
// budget returns one even when no candidate is left in it.
func LazyGreedyMaxCapture(obj Objective, candidates []graph.NodeID, budget int, initial []float64) (Result, *LazySnapshot, error) {
	if budget < 0 {
		return Result{}, nil, fmt.Errorf("submodular: negative budget %d", budget)
	}
	if initial != nil && len(initial) != len(candidates) {
		return Result{}, nil, fmt.Errorf("submodular: %d initial gains for %d candidates", len(initial), len(candidates))
	}
	var res Result
	if err := stopped(obj); err != nil {
		return res, nil, err
	}
	h := firstPass(obj, candidates, initial, &res)
	return lazyRun(obj, h, 0, budget, res)
}

// firstPass heaps the candidates that can gain: each one's gain on the
// current set is read from initial, or evaluated and counted in res when
// initial is nil, and only positive gains enter the heap. Dropping the
// rest is exact. Gains never grow as the set does, so a candidate at ≤ 0
// can never be picked, and under the total order it never outranks a
// positive item, so no decision about another candidate depends on it.
func firstPass(obj Objective, candidates []graph.NodeID, initial []float64, res *Result) celfHeap {
	h := make(celfHeap, 0, len(candidates))
	for i, v := range candidates {
		var g float64
		if initial != nil {
			g = initial[i]
		} else {
			g = obj.Gain(v)
			res.Evaluations++
		}
		if g > 0 {
			h = append(h, LazyItem{Node: v, Gain: g})
		}
	}
	h.init()
	return h
}

// LazyGreedyMaxResume continues a CELF run from a snapshot up to budget
// additional picks. obj must already reflect the snapshot's committed
// picks (the caller replays them via Add); the returned Result covers only
// the extension. The snapshot is not modified, and the run it came from
// plus this extension together equal one cold run at the larger budget.
func LazyGreedyMaxResume(obj Objective, snap *LazySnapshot, budget int) (Result, *LazySnapshot, error) {
	if budget < 0 {
		return Result{}, nil, fmt.Errorf("submodular: negative budget %d", budget)
	}
	if snap == nil {
		return Result{}, nil, fmt.Errorf("submodular: nil snapshot")
	}
	var res Result
	if err := stopped(obj); err != nil {
		return res, nil, err
	}
	h := make(celfHeap, len(snap.Items))
	copy(h, snap.Items)
	return lazyRun(obj, h, snap.Round, budget, res)
}

// next pops the heap until its top is current and outranks every other
// item, re-evaluating each stale top on the way: the other items' stale
// gains bound their current ones from above. A re-evaluated item whose
// gain fell to ≤ 0 is dropped, since gains never grow and such a candidate
// can never be picked. ok is false once the heap is empty.
func (h *celfHeap) next(obj Objective, round int, res *Result) (LazyItem, bool) {
	for len(*h) > 0 {
		top := h.pop()
		if top.Round != int32(round) {
			top.Gain = obj.Gain(top.Node)
			res.Evaluations++
			top.Round = int32(round)
			if top.Gain <= 0 {
				continue
			}
			if len(*h) > 0 && outranks((*h)[0], top) {
				h.push(top)
				continue
			}
		}
		return top, true
	}
	return LazyItem{}, false
}

// lazyRun is the shared CELF pick loop: up to budget picks starting at the
// given round, over an already-initialized heap. It owns h from here on.
func lazyRun(obj Objective, h celfHeap, round, budget int, res Result) (Result, *LazySnapshot, error) {
	for len(res.Seeds) < budget {
		top, ok := h.next(obj, round, &res)
		if !ok || top.Gain <= 0 {
			return res, nil, nil // no candidate left can gain
		}
		obj.Add(top.Node)
		res.Seeds = append(res.Seeds, top.Node)
		res.Values = append(res.Values, obj.Value())
		res.EvalsAt = append(res.EvalsAt, res.Evaluations)
		if err := stopped(obj); err != nil {
			return res, nil, err
		}
		round++
	}
	return res, &LazySnapshot{Items: h, Round: round}, nil
}

// ErrCoverInfeasible is returned when the target value cannot be reached
// with the available candidates.
var ErrCoverInfeasible = errors.New("submodular: coverage target unreachable")

// GreedyCover adds greedily chosen seeds until obj.Value() >= target,
// giving the ln(1+n)-approximation for submodular cover (paper Theorem 2's
// engine). maxSeeds bounds the seed count (0 means no bound). Uses lazy
// evaluation like CELF.
func GreedyCover(obj Objective, candidates []graph.NodeID, target float64, maxSeeds int) (Result, error) {
	return GreedyCoverInit(obj, candidates, target, maxSeeds, nil)
}

// GreedyCoverInit is GreedyCover with optionally precomputed initial gains;
// see LazyGreedyMaxCapture.
func GreedyCoverInit(obj Objective, candidates []graph.NodeID, target float64, maxSeeds int, initial []float64) (Result, error) {
	if initial != nil && len(initial) != len(candidates) {
		return Result{}, fmt.Errorf("submodular: %d initial gains for %d candidates", len(initial), len(candidates))
	}
	var res Result
	if err := stopped(obj); err != nil {
		return res, err
	}
	if obj.Value() >= target {
		return res, nil
	}
	h := firstPass(obj, candidates, initial, &res)
	for round := 0; ; round++ {
		if maxSeeds > 0 && len(res.Seeds) >= maxSeeds {
			return res, fmt.Errorf("%w: %d seeds reached value %v < target %v",
				ErrCoverInfeasible, len(res.Seeds), obj.Value(), target)
		}
		top, ok := h.next(obj, round, &res)
		if !ok || top.Gain <= 0 {
			return res, fmt.Errorf("%w: no candidate gains at value %v < target %v",
				ErrCoverInfeasible, obj.Value(), target)
		}
		obj.Add(top.Node)
		res.Seeds = append(res.Seeds, top.Node)
		res.Values = append(res.Values, obj.Value())
		res.EvalsAt = append(res.EvalsAt, res.Evaluations)
		if err := stopped(obj); err != nil {
			return res, err
		}
		if obj.Value() >= target {
			return res, nil
		}
	}
}

// SetValue evaluates an arbitrary seed set from scratch on a freshly
// resettable objective. factory must return a fresh Objective each call.
func SetValue(factory func() Objective, set []graph.NodeID) float64 {
	obj := factory()
	for _, v := range set {
		obj.Add(v)
	}
	return obj.Value()
}

// BruteForceMax enumerates every candidate subset of size exactly budget
// (monotone objectives never prefer smaller sets) and returns an optimal
// one. Exponential; intended for tests and the 38-node Figure-1 instance.
func BruteForceMax(factory func() Objective, candidates []graph.NodeID, budget int) ([]graph.NodeID, float64, error) {
	if budget < 0 {
		return nil, 0, fmt.Errorf("submodular: negative budget %d", budget)
	}
	if budget > len(candidates) {
		budget = len(candidates)
	}
	var best []graph.NodeID
	bestVal := -1.0
	idx := make([]int, budget)
	set := make([]graph.NodeID, budget)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == budget {
			for i, j := range idx {
				set[i] = candidates[j]
			}
			v := SetValue(factory, set)
			if v > bestVal {
				bestVal = v
				best = append(best[:0], set...)
			}
			return
		}
		for j := start; j <= len(candidates)-(budget-k); j++ {
			idx[k] = j
			rec(j+1, k+1)
		}
	}
	if budget == 0 {
		return nil, SetValue(factory, nil), nil
	}
	rec(0, 0)
	out := append([]graph.NodeID(nil), best...)
	return out, bestVal, nil
}
