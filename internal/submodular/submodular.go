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
// the current value. CELF evaluates a stale top only when its bound still
// ranks first. Any valid bound leaves the picks unchanged under the total
// order, so only the number of evaluations falls.
//
// RIS candidates tie massively: thousands of them share a handful of
// first-pass rows. So CELF's heap holds tie classes, not candidates. A
// class is every candidate whose key, round and row are bit-identical,
// kept as one ascending run of node IDs; it ranks as its lowest member,
// is bounded and sifted once for all of them, and keeps one row, in
// float32 rounded up. An evaluation splits off only the lowest member.
// The heap and its snapshots thus hold 4 bytes per candidate, the rest
// per class.
package submodular

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"

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
		bestIdx, best, bestGain := -1, graph.NodeID(0), 0.0
		for i, v := range remaining {
			g := obj.Gain(v)
			res.Evaluations++
			if bestIdx == -1 || outranks(g, v, bestGain, best) {
				bestIdx, best, bestGain = i, v, g
			}
		}
		if bestGain <= 0 {
			break // monotone objective exhausted; extra seeds are useless
		}
		v := best
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
// shrinks as u grows, while the stale gain CELF keys a candidate by does
// not, so CELF keeps each tie class's last row and evaluates a stale top
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

// LazySnapshot is the complete CELF state after a run: its heap of tie
// classes and the number of committed picks. A class is one heap entry
// for candidates whose key, round and per-group gain row are
// bit-identical; its members are one ascending run of a node array that
// every class shares, and when the objective is a non-linear
// GroupObjective it keeps one row, in float32 rounded up. So a snapshot
// holds 4 bytes per candidate, the node array, beside one entry and at
// most one row per class. The heap holds only candidates whose gain bound
// is positive; no other candidate can ever be picked. Because this state
// after k picks is a function of the objective and those k picks only —
// not of the eventual budget — a snapshot from a budget-k run is
// bit-identical to a larger run's state at pick k, so resuming it extends
// the solution, evaluation for evaluation, exactly as the larger cold run
// would have continued. Snapshots are immutable once captured: Resume
// copies the entries and rows before mutating them and only reads the
// node array, so one snapshot can serve any number of extensions.
type LazySnapshot struct {
	classes []lazyClass
	nodes   []graph.NodeID
	rows    []float32
	round   int
}

// All yields every candidate the snapshot keeps with the key that bounds
// its gain from above, class by class in heap order.
func (s *LazySnapshot) All() iter.Seq2[graph.NodeID, float64] {
	return func(yield func(graph.NodeID, float64) bool) {
		for _, c := range s.classes {
			for _, v := range s.nodes[c.lo : c.lo+c.n] {
				if !yield(v, c.gain) {
					return
				}
			}
		}
	}
}

// lazyClass is one CELF heap entry: the candidates nodes[lo : lo+n], an
// ascending run, with the round of their last evaluation, the gain bound
// it left them and, when the heap keeps rows, its per-group gain row.
type lazyClass struct {
	// gain is the gain evaluated in round, or the smaller bound the row
	// gave in a later round; either bounds every member's gain from above.
	gain  float64
	round int32
	lo, n int32
	row   int32 // the row is rows[row·width : (row+1)·width]
}

// outranks reports whether candidate a with gain ga comes before b with
// gain gb in CELF's order: the higher gain first, and on equal gains the
// lower node ID. The order is total over distinct nodes, so which
// candidate a run picks never depends on where or in which class it sits
// in the heap, nor on the candidate order.
func outranks(ga float64, a graph.NodeID, gb float64, b graph.NodeID) bool {
	return ga > gb || ga == gb && a < b
}

// celfHeap is a max-heap of tie classes, each ranked as its first member,
// so the heap's order is outranks. The first pass writes the node array
// once: a class gives up its first member by advancing lo, and an
// evaluated member that leaves a larger class stays in its slot as a class
// of its own, so a resumed run shares a snapshot's array. Rows sit in
// their own arena and never move with a sift: a lone member re-keyed by
// an evaluation overwrites its class's row, and a member that leaves a
// larger class appends one. The sift visits container/heap's positions;
// being typed, it moves classes without boxing each one in an interface.
type celfHeap struct {
	classes []lazyClass
	nodes   []graph.NodeID
	rows    []float32      // width entries per row slot, rounded up
	width   int            // G when rows are kept, else 0
	group   GroupObjective // obj's row view; nil for a plain Objective
	x       []float64      // scratch: u + row, G entries
}

// newHeap returns an empty heap for obj; it keeps rows when obj is a
// non-linear GroupObjective.
func newHeap(obj Objective) *celfHeap {
	h := &celfHeap{}
	if g, ok := obj.(GroupObjective); ok {
		h.group, h.x = g, make([]float64, len(g.Utilities()))
		if !g.Linear() {
			h.width = len(h.x)
		}
	}
	return h
}

// outranks orders two classes as their first members.
func (h *celfHeap) outranks(a, b lazyClass) bool {
	return a.gain > b.gain || a.gain == b.gain && h.nodes[a.lo] < h.nodes[b.lo]
}

// init establishes the heap invariant (container/heap.Init).
func (h *celfHeap) init() {
	for i := len(h.classes)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes the top class (container/heap.Pop).
func (h *celfHeap) pop() {
	n := len(h.classes) - 1
	h.classes[0] = h.classes[n]
	h.classes = h.classes[:n]
	if n > 0 {
		h.down(0)
	}
}

// push adds a class (container/heap.Push).
func (h *celfHeap) push(c lazyClass) {
	h.classes = append(h.classes, c)
	h.up(len(h.classes) - 1)
}

// down sifts class i down to where container/heap's down would leave it,
// but through a hole: each child that outranks the class moves up a
// level, and the class is written once, into the last hole.
func (h *celfHeap) down(i int) {
	cs, n := h.classes, len(h.classes)
	c := cs[i]
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h.outranks(cs[j2], cs[j]) {
			j = j2 // right child
		}
		if !h.outranks(cs[j], c) {
			break
		}
		cs[i] = cs[j]
		i = j
	}
	cs[i] = c
}

// up sifts class i up to where container/heap's up would leave it,
// through a hole as down does.
func (h *celfHeap) up(i int) {
	cs := h.classes
	c := cs[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.outranks(c, cs[p]) {
			break
		}
		cs[i] = cs[p]
		i = p
	}
	cs[i] = c
}

// runnerUp returns the class that outranks every other but the top; the
// heap holds at least two classes.
func (h *celfHeap) runnerUp() lazyClass {
	if len(h.classes) > 2 && h.outranks(h.classes[2], h.classes[1]) {
		return h.classes[2]
	}
	return h.classes[1]
}

// LazyGreedyMax runs CELF (Leskovec et al. 2007): because marginal gains
// only shrink as the set grows, a stale gain is an upper bound, so the
// top-of-heap candidate whose gain is current can be added without
// re-scanning everyone. The heap and the accept test share GreedyMax's
// total order (higher gain, then lower node ID), so on exact objectives
// the seeds and values are GreedyMax's whatever the candidate order, cold
// or captured and resumed, typically with far fewer Gain calls. Under that
// order a candidate whose gain falls to ≤ 0 can never be picked, so CELF
// drops it, from the first pass on. Candidates with bit-identical keys and
// rows share one heap entry, so a bound moves all of them at once. For a
// non-linear GroupObjective, CELF also keeps each class's last per-group
// gain row and skips a stale top whose row bound ranks below the next
// class; the picks stay GreedyMax's, only the Gain calls fall.
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

// firstPass heaps the candidates that can gain, in tie classes. Each
// candidate's gain on the current set comes from its initial row, or is
// evaluated and counted in res when initial is nil, and only positive
// gains enter the heap. Dropping the rest is exact. Gains never grow as
// the set does, so a candidate at ≤ 0 can never be picked, and under the
// total order it never outranks a positive one, so no decision about
// another candidate depends on it. The candidates whose rows are
// bit-identical, or their gains when the heap keeps no rows, form one
// class, whose gain its row gives once for all of them. A first walk
// finds the classes and counts their members; a second lays each class
// out as one run of the node array, in candidate order, and a run is
// sorted only when the candidates are not.
func firstPass(obj Objective, candidates []graph.NodeID, initial []float64, res *Result) (*celfHeap, error) {
	h := newHeap(obj)
	p := tiePass{width: h.width}
	switch {
	case initial != nil:
		if h.group == nil {
			return nil, errors.New("submodular: initial gains need a GroupObjective")
		}
		if len(initial) != len(candidates)*len(h.x) {
			return nil, fmt.Errorf("submodular: %d initial gains for %d candidates of %d groups", len(initial), len(candidates), len(h.x))
		}
		p.rows = initial
	case h.width > 0:
		p.rows = make([]float64, len(candidates)*h.width)
		for i, v := range candidates {
			_, row := h.group.GainRow(v)
			copy(p.rows[i*h.width:], row)
		}
		res.Evaluations += len(candidates)
	default:
		p.gains = make([]float64, len(candidates))
		for i, v := range candidates {
			p.gains[i] = obj.Gain(v)
		}
		res.Evaluations += len(candidates)
	}
	if p.rows != nil {
		p.cur, p.base = h.group.Utilities(), h.group.Value()
	}
	p.slots, p.classes = make([]int32, 64), make([]lazyClass, 0, 32)
	live, kept := int32(0), 0
	for i := range candidates {
		if i == probe && 4*len(p.classes) > 3*probe {
			// Mostly distinct so far, as forward-MC rows on a small pool
			// of worlds can be: room for every candidate at once costs
			// less than doubling up to it.
			p.reserve(len(candidates))
		}
		if c := &p.classes[p.class(i, h)]; c.gain > 0 {
			if c.n == 0 {
				kept++
			}
			c.n++
			live++
		}
	}
	// A kept class's run starts where the runs of the kept classes before
	// it end; row, free until the layout ends, is the run's cursor.
	start := int32(0)
	for c := range p.classes {
		if cl := &p.classes[c]; cl.gain > 0 {
			cl.row = start
			start += cl.n
		}
	}
	h.nodes = make([]graph.NodeID, live)
	for i, v := range candidates {
		if cl := &p.classes[p.class(i, h)]; cl.gain > 0 {
			h.nodes[cl.row] = v
			cl.row++
		}
	}
	if h.width > 0 {
		h.rows = make([]float32, 0, kept*h.width)
	}
	// The kept classes move to the front of the pass's own; the room left
	// behind them takes the first classes that evaluations split off.
	sorted := slices.IsSorted(candidates)
	h.classes = p.classes[:0]
	for _, cl := range p.classes {
		if cl.gain <= 0 {
			continue
		}
		if h.width > 0 {
			for _, d := range p.row(int(cl.lo)) {
				h.rows = append(h.rows, up32(d))
			}
		}
		cl.lo, cl.row = cl.row-cl.n, int32(len(h.classes))
		if !sorted {
			slices.Sort(h.nodes[cl.lo : cl.lo+cl.n])
		}
		h.classes = append(h.classes, cl)
	}
	h.init()
	return h, nil
}

// tiePass sorts a first pass's candidates into tie classes by the bits of
// their keys — rows when the heap keeps them, else gains — with open
// addressing and linear probing over class indices, so grouping costs
// O(1) per candidate and no map order reaches the heap.
type tiePass struct {
	width   int       // G when classes are keyed by rows, else 0
	rows    []float64 // per-group rows, G per candidate; or nil and
	gains   []float64 // one evaluated gain per candidate
	cur     []float64 // the utilities rows are added to
	base    float64   // vf(cur)
	slots   []int32   // class index + 1, or 0 for an empty slot; a power of two long
	classes []lazyClass
}

// row returns candidate i's per-group row.
func (p *tiePass) row(i int) []float64 {
	w := len(p.cur)
	return p.rows[i*w : (i+1)*w]
}

// gain returns candidate i's gain on the current set, its row summed
// through h's objective.
func (p *tiePass) gain(i int, h *celfHeap) float64 {
	if p.rows == nil {
		return p.gains[i]
	}
	for j, d := range p.row(i) {
		h.x[j] = p.cur[j] + d
	}
	return h.group.ValueAt(h.x) - p.base
}

// class returns the class of candidate i, adding one when no class has
// its key. Until the layout, a class's lo is its first candidate's
// position, whose key is the class's.
func (p *tiePass) class(i int, h *celfHeap) int32 {
	var g float64
	var key []float64
	if p.width > 0 {
		key = p.row(i)
	} else {
		g = p.gain(i, h)
		key = []float64{g}
	}
	if 2*(len(p.classes)+1) > len(p.slots) {
		p.rehash(2 * len(p.slots))
	}
	mask := len(p.slots) - 1
	for s := int(hashBits(key)) & mask; ; s = (s + 1) & mask {
		e := p.slots[s] - 1
		if e < 0 {
			if p.width > 0 {
				g = p.gain(i, h)
			}
			c := int32(len(p.classes))
			p.slots[s] = c + 1
			p.classes = append(p.classes, lazyClass{gain: g, lo: int32(i)})
			return c
		}
		if p.width > 0 && sameBits(p.row(int(p.classes[e].lo)), key) ||
			p.width == 0 && math.Float64bits(p.classes[e].gain) == math.Float64bits(g) {
			return e
		}
	}
}

// probe is how many candidates the first pass groups before it judges
// whether they tie.
const probe = 64

// reserve makes room for n classes at once.
func (p *tiePass) reserve(n int) {
	p.classes = slices.Grow(p.classes, n-len(p.classes))
	size := len(p.slots)
	for size < 2*(n+1) {
		size *= 2
	}
	p.rehash(size)
}

// rehash re-inserts every class into size slots, a power of two.
func (p *tiePass) rehash(size int) {
	p.slots = make([]int32, size)
	mask := len(p.slots) - 1
	for c, cl := range p.classes {
		key := []float64{cl.gain}
		if p.width > 0 {
			key = p.row(int(cl.lo))
		}
		s := int(hashBits(key)) & mask
		for p.slots[s] != 0 {
			s = (s + 1) & mask
		}
		p.slots[s] = int32(c) + 1
	}
}

// hashBits mixes the bits of key with splitmix64's finalizer.
func hashBits(key []float64) uint64 {
	h := uint64(len(key))
	for _, f := range key {
		h ^= math.Float64bits(f)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	for i, f := range a {
		if math.Float64bits(f) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// up32 returns the least float32 that is ≥ x, so a kept row never
// undercuts the float64 row it stands for. Rounded up, a row bounds a
// little above its exact value, and those bounds decide which stale tops
// CELF evaluates: exact rows evaluate fewer, but where rounding noise in
// the gains decides a tie, they pick differently.
func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
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
	h := newHeap(obj)
	for _, c := range snap.classes {
		if h.width == 0 && snap.rows != nil || int(c.row+1)*h.width > len(snap.rows) {
			return res, nil, fmt.Errorf("submodular: snapshot has %d row entries for %d classes of %d groups", len(snap.rows), len(snap.classes), h.width)
		}
	}
	h.classes = slices.Clone(snap.classes)
	h.nodes = snap.nodes
	h.rows = slices.Clone(snap.rows)
	return lazyRun(obj, h, snap.round, budget, res)
}

// next pops the heap until its top class is current and outranks every
// other, and returns the class's first member: the other keys bound their
// members' current gains from above. A stale top is first checked against
// its row bound, when the heap keeps rows: a bound ≤ 0 drops the class,
// and a bound that ranks below the next class becomes its key,
// unevaluated. Otherwise its first member is re-evaluated (evaluate). ok
// is false once the heap is empty.
func (h *celfHeap) next(obj Objective, round int, res *Result) (v graph.NodeID, ok bool) {
	var cur []float64
	var base float64
	if h.width > 0 {
		// The current set's utilities; they change only between calls.
		cur, base = h.group.Utilities(), h.group.Value()
	}
	r := int32(round)
	for len(h.classes) > 0 {
		top := &h.classes[0]
		if top.round == r {
			return h.take(), true
		}
		if h.width > 0 && (len(h.classes) > 1 || top.n > 1) {
			b := h.bound(top.row, cur, base)
			if b <= 0 {
				h.pop()
				continue
			}
			if len(h.classes) > 1 && h.outranks(h.runnerUp(), lazyClass{gain: b, lo: top.lo}) {
				top.gain = b
				h.down(0)
				continue
			}
		}
		h.evaluate(obj, r, res)
	}
	return 0, false
}

// take removes the top class's first member and returns it.
func (h *celfHeap) take() graph.NodeID {
	top := &h.classes[0]
	v := h.nodes[top.lo]
	if top.n == 1 {
		h.pop()
	} else {
		top.lo++
		top.n--
		h.down(0)
	}
	return v
}

// bound returns vf(cur + row) − vf(cur) for row slot row, base being
// vf(cur): an upper bound on the gain, at the current set, of every
// member of a class keeping that row.
func (h *celfHeap) bound(row int32, cur []float64, base float64) float64 {
	w := h.width
	for j, d := range h.rows[int(row)*w : int(row+1)*w] {
		h.x[j] = cur[j] + float64(d)
	}
	return h.group.ValueAt(h.x) - base
}

// evaluate re-evaluates the top class's first member on the current set,
// in round r. A lone member is re-keyed in place, row and all; any other
// leaves its class as a class of its own, with its new key and row, while
// the rest keep theirs. A member whose gain fell to ≤ 0 is dropped: gains
// never grow, so it can never be picked.
func (h *celfHeap) evaluate(obj Objective, r int32, res *Result) {
	top := &h.classes[0]
	v := h.nodes[top.lo]
	var g float64
	var row []float64
	if h.width > 0 {
		g, row = h.group.GainRow(v)
	} else {
		g = obj.Gain(v)
	}
	res.Evaluations++
	if top.n == 1 {
		if g <= 0 {
			h.pop()
			return
		}
		top.gain, top.round = g, r
		for j, d := range row {
			h.rows[int(top.row)*h.width+j] = up32(d)
		}
		h.down(0)
		return
	}
	lo := top.lo
	top.lo++
	top.n--
	h.down(0)
	if g > 0 {
		c := lazyClass{gain: g, round: r, lo: lo, n: 1}
		if h.width > 0 {
			c.row = int32(len(h.rows) / h.width)
			for _, d := range row {
				h.rows = append(h.rows, up32(d))
			}
		}
		h.push(c)
	}
}

// lazyRun is the shared CELF pick loop: up to budget picks starting at the
// given round, over an already-initialized heap. It owns h from here on.
func lazyRun(obj Objective, h *celfHeap, round, budget int, res Result) (Result, *LazySnapshot, error) {
	// Each kept candidate is picked at most once, which caps the
	// preallocation: a caller's budget may be arbitrarily large.
	if n := min(budget, len(h.nodes)); n > 0 {
		res.Seeds, res.Values, res.EvalsAt = make([]graph.NodeID, 0, n), make([]float64, 0, n), make([]int, 0, n)
	}
	for len(res.Seeds) < budget {
		v, ok := h.next(obj, round, &res)
		if !ok {
			return res, nil, nil // no candidate left can gain
		}
		obj.Add(v)
		res.Seeds = append(res.Seeds, v)
		res.Values = append(res.Values, obj.Value())
		res.EvalsAt = append(res.EvalsAt, res.Evaluations)
		if err := stopped(obj); err != nil {
			return res, nil, err
		}
		round++
	}
	return res, &LazySnapshot{classes: h.classes, nodes: h.nodes, rows: h.rows, round: round}, nil
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
		v, ok := h.next(obj, round, &res)
		if !ok {
			return res, fmt.Errorf("%w: no candidate gains at value %v < target %v",
				ErrCoverInfeasible, obj.Value(), target)
		}
		obj.Add(v)
		res.Seeds = append(res.Seeds, v)
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
