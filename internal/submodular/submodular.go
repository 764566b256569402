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
//
// CELF keys each candidate by an upper bound on its gain. Plain CELF uses
// the last evaluated gain. An objective that is a non-decreasing function
// of per-group submodular utilities (GroupObjective, the shape of all the
// paper's fair objectives) gives a tighter one: the value function at the
// current utilities plus the candidate's last per-group gain row, minus
// the current value. CELF keeps that row per heap item, in float32
// rounded up, and evaluates a stale top only when its bound still ranks
// first. Any valid bound leaves the picks unchanged under the total
// order, so only the number of evaluations falls.
package submodular

import (
	"errors"
	"fmt"
	"math"

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

// GroupObjective is an optional Objective extension for an objective
// F(S) = vf(u(S)) over G group utilities u(S) = (u₁(S), …, u_G(S)), each
// monotone submodular, with vf non-decreasing in every coordinate: the
// shape of every fair objective in the paper. A candidate's per-group
// gain row Δ from an earlier round then bounds its gain now, since its
// current row is at most Δ in every group:
//
//	Gain(v) ≤ vf(u + Δ) − vf(u).
//
// For a concave vf (P4's Σᵢ H) or a truncated one (P2/P6) that bound
// shrinks as u grows, while the stale gain CELF keys the item by does
// not, so CELF keeps each heap item's last row and evaluates a stale top
// only when its bound still ranks first. For a linear vf the bound is the
// stale gain, and no rows are kept.
type GroupObjective interface {
	Objective
	// GainRow returns Gain(v) and v's per-group gain row Δᵥ; the row is
	// shared and valid until the next GainRow or Gain call.
	GainRow(v graph.NodeID) (float64, []float64)
	// Utilities returns u(S) at the current set, G entries; read only and
	// valid until the next Add.
	Utilities() []float64
	// ValueAt returns vf(x) for any G utilities x. Value() must equal
	// ValueAt(Utilities()), and Gain(v) must equal ValueAt(y) − Value()
	// bit for bit, where yᵢ = Utilities()ᵢ + Δᵥᵢ.
	ValueAt(x []float64) float64
	// Linear reports whether vf is linear, so that a row bounds nothing
	// its stale gain does not.
	Linear() bool
}

// LazyItem is a candidate with an upper bound on its gain — one entry of
// a CELF heap. Exported so a finished run's heap can be snapshotted and
// resumed (see LazyGreedyMaxCapture). The two 4-byte fields come first so
// an item packs into 16 bytes.
type LazyItem struct {
	Node  graph.NodeID
	Round int32 // the pick-round of the last evaluation
	// Gain is the gain evaluated in Round, or the smaller bound the item's
	// row gave in a later round; either bounds its current gain from above.
	Gain float64
}

// LazySnapshot is the complete CELF state after a run: the heap (in valid
// heap order), each item's last per-group gain row, and the number of
// committed picks. The heap holds only candidates whose gain bound is
// positive; no other candidate can ever be picked. Because this state
// after k picks is a function of the objective and those k picks only —
// not of the eventual budget — a snapshot from a budget-k run is
// bit-identical to a larger run's state at pick k, so resuming it extends
// the solution, evaluation for evaluation, exactly as the larger cold run
// would have continued. Snapshots are immutable once captured; Resume
// copies before mutating, so one snapshot can serve any number of
// extensions.
type LazySnapshot struct {
	Items []LazyItem
	// Rows holds G float32s per item, aligned with Items: row i is
	// Items[i]'s per-group gain row from its last evaluation, rounded
	// toward +∞ so that it still bounds the float64 row. Nil unless the
	// objective is a non-linear GroupObjective.
	Rows  []float32
	Round int
}

// outranks reports whether a comes before b in CELF's order: the higher
// gain first, and on equal gains the lower node ID. The order is total
// over distinct nodes, so which candidate a run picks never depends on
// where an item sits in the heap array, nor on the candidate order.
func outranks(a, b LazyItem) bool {
	return a.Gain > b.Gain || a.Gain == b.Gain && a.Node < b.Node
}

// celfHeap is a max-heap of LazyItems in outranks order, each with its
// last per-group gain row when the objective keeps rows. Its sift visits
// container/heap's positions; being typed, it moves items without boxing
// each one in an interface.
type celfHeap struct {
	items []LazyItem
	rows  []float32      // width entries per item, aligned with items
	width int            // G when rows are kept, else 0
	group GroupObjective // obj's row view; nil for a plain Objective
	x     []float64      // scratch: u + row, G entries
	row   []float32      // scratch: the row of the item down sifts
}

// newHeap returns an empty heap for obj with room for n items; it keeps
// rows when obj is a non-linear GroupObjective.
func newHeap(obj Objective, n int) *celfHeap {
	h := &celfHeap{items: make([]LazyItem, 0, n)}
	if g, ok := obj.(GroupObjective); ok {
		h.group, h.x = g, make([]float64, len(g.Utilities()))
		if !g.Linear() {
			h.width = len(h.x)
			h.rows = make([]float32, 0, n*h.width)
			h.row = make([]float32, h.width)
		}
	}
	return h
}

// add appends an item and its float64 row, rounded up; init must follow.
func (h *celfHeap) add(it LazyItem, row []float64) {
	h.items = append(h.items, it)
	for _, d := range row[:h.width] {
		h.rows = append(h.rows, up32(d))
	}
}

// up32 returns the least float32 that is ≥ x, so a stored row never
// undercuts the float64 row it stands for.
func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// init establishes the heap invariant (container/heap.Init).
func (h *celfHeap) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// pop removes and returns the item that outranks every other
// (container/heap.Pop), dropping its row.
func (h *celfHeap) pop() LazyItem {
	n, w := len(h.items)-1, h.width
	top := h.items[0]
	h.items[0] = h.items[n]
	copy(h.rows[:w], h.rows[n*w:])
	h.items, h.rows = h.items[:n], h.rows[:n*w]
	if n > 0 {
		h.down(0, n)
	}
	return top
}

// down sifts item i down among the first n items to where
// container/heap's down would leave it, but through a hole: each child
// that outranks the item moves up a level, row and all, and the item and
// its row are written once, into the last hole.
func (h *celfHeap) down(i, n int) {
	items, rows, w := h.items, h.rows, h.width
	it := items[i]
	copy(h.row, rows[i*w:])
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && outranks(items[j2], items[j]) {
			j = j2 // right child
		}
		if !outranks(items[j], it) {
			break
		}
		items[i] = items[j]
		for k := range w {
			rows[i*w+k] = rows[j*w+k]
		}
		i = j
	}
	items[i] = it
	copy(rows[i*w:i*w+w], h.row)
}

// runnerUp returns the item that outranks every other but the top; the
// heap holds at least two items.
func (h *celfHeap) runnerUp() LazyItem {
	if len(h.items) > 2 && outranks(h.items[2], h.items[1]) {
		return h.items[2]
	}
	return h.items[1]
}

// LazyGreedyMax runs CELF (Leskovec et al. 2007): because marginal gains
// only shrink as the set grows, a stale gain is an upper bound, so the
// top-of-heap candidate whose gain is current can be added without
// re-scanning everyone. The heap and the accept test share GreedyMax's
// total order (higher gain, then lower node ID), so on exact objectives
// the seeds and values are GreedyMax's whatever the candidate order, cold
// or captured and resumed, typically with far fewer Gain calls. Under that
// order a candidate whose gain falls to ≤ 0 can never be picked, so CELF
// drops it, from the first pass on. For a non-linear GroupObjective, CELF
// also keeps each item's last per-group gain row and skips a stale top
// whose row bound ranks below the next item; the picks stay GreedyMax's,
// only the Gain calls fall.
func LazyGreedyMax(obj Objective, candidates []graph.NodeID, budget int) (Result, error) {
	res, _, err := LazyGreedyMaxCapture(obj, candidates, budget, nil)
	return res, err
}

// LazyGreedyMaxCapture is LazyGreedyMax with an optionally precomputed
// first pass that additionally returns the final CELF state, so a later
// call can extend the run to a larger budget without redoing the
// committed picks (seed-set prefix memoization). initial, when non-nil,
// holds the per-group gains the first pass would evaluate on the current
// set, letting callers parallelize it: obj must be a GroupObjective with
// G groups, and initial the flat row-major buffer of len(candidates)·G
// entries whose row i is candidates[i]'s, as estimator.InitialGains
// returns it. The snapshot is nil when the run ended before its budget —
// error, exhausted candidates, or zero best gain — because such a run has
// nothing useful to extend; a run that fills its budget returns one even
// when no candidate is left in it.
func LazyGreedyMaxCapture(obj Objective, candidates []graph.NodeID, budget int, initial []float64) (Result, *LazySnapshot, error) {
	if budget < 0 {
		return Result{}, nil, fmt.Errorf("submodular: negative budget %d", budget)
	}
	var res Result
	if err := stopped(obj); err != nil {
		return res, nil, err
	}
	h, err := firstPass(obj, candidates, initial, &res)
	if err != nil {
		return res, nil, err
	}
	return lazyRun(obj, h, 0, budget, res)
}

// firstPass heaps the candidates that can gain: each one's gain on the
// current set comes from its initial row, or is evaluated and counted in
// res when initial is nil, and only positive gains enter the heap, with
// their rows when the heap keeps rows. Dropping the rest is exact. Gains
// never grow as the set does, so a candidate at ≤ 0 can never be picked,
// and under the total order it never outranks a positive item, so no
// decision about another candidate depends on it.
func firstPass(obj Objective, candidates []graph.NodeID, initial []float64, res *Result) (*celfHeap, error) {
	h := newHeap(obj, len(candidates))
	group, x := h.group, h.x
	var cur []float64
	var base float64
	if initial != nil {
		if group == nil {
			return nil, errors.New("submodular: initial gains need a GroupObjective")
		}
		if len(initial) != len(candidates)*len(x) {
			return nil, fmt.Errorf("submodular: %d initial gains for %d candidates of %d groups", len(initial), len(candidates), len(x))
		}
		cur, base = group.Utilities(), group.Value()
	}
	for i, v := range candidates {
		var g float64
		var row []float64
		switch {
		case initial != nil:
			row = initial[i*len(x) : (i+1)*len(x)]
			for j, d := range row {
				x[j] = cur[j] + d
			}
			g = group.ValueAt(x) - base
		case group != nil:
			g, row = group.GainRow(v)
			res.Evaluations++
		default:
			g = obj.Gain(v)
			res.Evaluations++
		}
		if g > 0 {
			h.add(LazyItem{Node: v, Gain: g}, row)
		}
	}
	h.init()
	return h, nil
}

// LazyGreedyMaxResume continues a CELF run from a snapshot up to budget
// additional picks. obj must already reflect the snapshot's committed
// picks (the caller replays them via Add), and the snapshot must come
// from a run over the same kind of objective, rows included; the returned
// Result covers only the extension. The snapshot is not modified, and the
// run it came from plus this extension together equal one cold run at the
// larger budget, Gain calls included.
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
	h := newHeap(obj, len(snap.Items))
	if len(snap.Rows) != len(snap.Items)*h.width {
		return res, nil, fmt.Errorf("submodular: snapshot has %d row entries for %d items of %d groups", len(snap.Rows), len(snap.Items), h.width)
	}
	h.items = append(h.items, snap.Items...)
	h.rows = append(h.rows, snap.Rows...)
	return lazyRun(obj, h, snap.Round, budget, res)
}

// next pops the heap until its top is current and outranks every other
// item, and returns it: the other items' keys bound their current gains
// from above. A stale top is first checked against its row bound, when
// the heap keeps rows: a bound ≤ 0 drops it, and a bound that ranks below
// the next item becomes its key, unevaluated. Otherwise it is
// re-evaluated, and dropped if its gain fell to ≤ 0, since gains never
// grow and such a candidate can never be picked. ok is false once the
// heap is empty.
func (h *celfHeap) next(obj Objective, round int, res *Result) (LazyItem, bool) {
	var cur []float64
	var base float64
	if h.width > 0 {
		// The current set's utilities; they change only between calls.
		cur, base = h.group.Utilities(), h.group.Value()
	}
	r := int32(round)
	for len(h.items) > 0 {
		top := &h.items[0]
		if top.Round != r {
			if h.width > 0 && len(h.items) > 1 {
				b := h.bound(cur, base)
				if b <= 0 {
					h.pop()
					continue
				}
				if bounded := (LazyItem{Node: top.Node, Gain: b}); outranks(h.runnerUp(), bounded) {
					top.Gain = b
					h.down(0, len(h.items))
					continue
				}
			}
			h.evaluate(obj, r)
			res.Evaluations++
			if top.Gain <= 0 {
				h.pop()
				continue
			}
			if len(h.items) > 1 && outranks(h.runnerUp(), *top) {
				h.down(0, len(h.items))
				continue
			}
		}
		return h.pop(), true
	}
	return LazyItem{}, false
}

// bound returns vf(cur + row) − vf(cur) for the top's row, base being
// vf(cur): an upper bound on the top's gain at the current set.
func (h *celfHeap) bound(cur []float64, base float64) float64 {
	for j, d := range h.rows[:h.width] {
		h.x[j] = cur[j] + float64(d)
	}
	return h.group.ValueAt(h.x) - base
}

// evaluate re-evaluates the top on the current set, in round r, keeping
// its new row when the heap keeps rows.
func (h *celfHeap) evaluate(obj Objective, r int32) {
	top := &h.items[0]
	top.Round = r
	if h.width == 0 {
		top.Gain = obj.Gain(top.Node)
		return
	}
	g, row := h.group.GainRow(top.Node)
	top.Gain = g
	for j, d := range row {
		h.rows[j] = up32(d)
	}
}

// lazyRun is the shared CELF pick loop: up to budget picks starting at the
// given round, over an already-initialized heap. It owns h from here on.
func lazyRun(obj Objective, h *celfHeap, round, budget int, res Result) (Result, *LazySnapshot, error) {
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
	return res, &LazySnapshot{Items: h.items, Rows: h.rows, Round: round}, nil
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

// GreedyCoverInit is GreedyCover with an optionally precomputed first
// pass of per-group gains; see LazyGreedyMaxCapture for initial's layout.
func GreedyCoverInit(obj Objective, candidates []graph.NodeID, target float64, maxSeeds int, initial []float64) (Result, error) {
	var res Result
	if err := stopped(obj); err != nil {
		return res, err
	}
	if obj.Value() >= target {
		return res, nil
	}
	h, err := firstPass(obj, candidates, initial, &res)
	if err != nil {
		return res, err
	}
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
