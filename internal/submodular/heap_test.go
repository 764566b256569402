package submodular

import (
	"slices"
	"testing"
	"unsafe"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// TestSnapshotCostPerCandidate pins what a CELF heap and its snapshot
// hold per candidate: one 4-byte node ID, in an array no longer than the
// candidates. Everything else is per class, a 24-byte entry and at most
// one row of G float32s, and a class forms only from a distinct
// first-pass row or from an evaluation past the first pass. So on
// RR-pool-shaped instances, whose hundreds of candidates share a few
// first-pass rows, the rest stays a small multiple of those classes, or
// of the 32 the first pass makes room for, however many candidates share
// them.
func TestSnapshotCostPerCandidate(t *testing.T) {
	if size := unsafe.Sizeof(graph.NodeID(0)); size != 4 {
		t.Fatalf("a node ID is %d bytes, want 4", size)
	}
	entry := int(unsafe.Sizeof(lazyClass{}))
	if entry != 24 {
		t.Fatalf("a heap entry is %d bytes, want 24", entry)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		n := 200 + rng.Intn(200)
		_, grouped := poolCoverage(rng, n)
		obj := grouped().(GroupObjective)
		groups := len(obj.Utilities())
		distinct := map[[5]float64]bool{}
		for v := range graph.NodeID(n) {
			var row [5]float64
			_, r := obj.GainRow(v)
			copy(row[:], r)
			distinct[row] = true
		}
		res, snap, err := LazyGreedyMaxCapture(obj, shuffledNodes(rng, n), 12, nil)
		if err != nil || snap == nil {
			t.Fatalf("seed %d: snapshot %v, err %v", seed, snap, err)
		}
		if cap(snap.nodes) > n {
			t.Fatalf("seed %d: node array has room for %d of %d candidates", seed, cap(snap.nodes), n)
		}
		classes := len(distinct) + res.Evaluations - n
		allow := 2 * max(classes, 32) * (entry + 4*groups)
		if rest := entry*cap(snap.classes) + 4*cap(snap.rows); rest > allow {
			t.Fatalf("seed %d: %d classes and %d row entries take %d bytes beside the node array; %d distinct rows and %d later evaluations allow %d",
				seed, len(snap.classes), len(snap.rows), rest, len(distinct), res.Evaluations-n, allow)
		}
	}
}

// refClass is a heap class as a linear scan sees it.
type refClass struct {
	gain    float64
	members []graph.NodeID
	row     []float32
}

// canonicalMax returns the index of the class whose first member outranks
// every other candidate: the highest gain, the lowest node ID among equal
// gains. It is the reference the heap's top must reproduce.
func canonicalMax(ref []refClass) int {
	best := 0
	for i, c := range ref {
		if outranks(c.gain, c.members[0], ref[best].gain, ref[best].members[0]) {
			best = i
		}
	}
	return best
}

// TestCELFHeapPopsInCanonicalOrder drives the class heap through init,
// take, pop, in-place re-key and split sequences over heavily tied gains
// and checks the top and the runner-up at every step against a linear
// scan: the class whose first member has the highest gain, the lowest
// node ID on a tie. Under that total order neither depends on the heap's
// array layout, which is what lets CELF drop classes or resume from a
// snapshot without changing a pick. Each class must keep its members and
// its row through every sift.
func TestCELFHeapPopsInCanonicalOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		n := rng.Intn(80)
		levels := 1 + rng.Intn(4) // at most 4 distinct gains: ties everywhere
		// Node IDs come shuffled and are cut into runs of one to four, so
		// array position and node order disagree.
		perm := rng.Perm(5*n + 10)[:n]
		h := &celfHeap{width: 2}
		var ref []refClass
		addRow := func(v graph.NodeID) ([]float32, int32) {
			row := []float32{float32(v), float32(len(h.rows))}
			h.rows = append(h.rows, row...)
			return row, int32(len(h.rows)/2 - 1)
		}
		for lo := 0; lo < n; {
			hi := min(lo+1+rng.Intn(4), n)
			run := make([]graph.NodeID, 0, hi-lo)
			for _, v := range perm[lo:hi] {
				run = append(run, graph.NodeID(v))
			}
			slices.Sort(run)
			h.nodes = append(h.nodes, run...)
			row, slot := addRow(run[0])
			c := lazyClass{gain: float64(rng.Intn(levels)), round: int32(rng.Intn(3)), lo: int32(lo), n: int32(hi - lo), row: slot}
			h.classes = append(h.classes, c)
			ref = append(ref, refClass{gain: c.gain, members: run, row: row})
			lo = hi
		}
		h.init()
		for step := 0; len(h.classes) > 0; step++ {
			if len(h.classes) != len(ref) {
				t.Fatalf("seed %d step %d: heap holds %d classes, want %d", seed, step, len(h.classes), len(ref))
			}
			i := canonicalMax(ref)
			top := h.classes[0]
			checkClass(t, h, top, ref[i], seed, step, "top")
			if len(ref) > 1 {
				rest := slices.Delete(slices.Clone(ref), i, i+1)
				checkClass(t, h, h.runnerUp(), rest[canonicalMax(rest)], seed, step, "runner-up")
			}
			switch rng.Intn(4) {
			case 0:
				// CELF's re-key in place: a row bound, never larger than
				// the key it replaces.
				h.classes[0].gain = float64(rng.Intn(int(top.gain) + 1))
				ref[i].gain = h.classes[0].gain
				h.down(0)
			case 1:
				// An evaluation that splits the first member off with a
				// key no larger, as a class of its own with a new row.
				if top.n == 1 {
					continue
				}
				v := ref[i].members[0]
				h.classes[0].lo++
				h.classes[0].n--
				h.down(0)
				row, slot := addRow(v)
				c := lazyClass{gain: float64(rng.Intn(int(top.gain) + 1)), round: top.round + 1, lo: top.lo, n: 1, row: slot}
				h.push(c)
				ref[i].members = ref[i].members[1:]
				ref = append(ref, refClass{gain: c.gain, members: []graph.NodeID{v}, row: row})
			case 2:
				if got := h.take(); got != ref[i].members[0] {
					t.Fatalf("seed %d step %d: take = %d, want %d", seed, step, got, ref[i].members[0])
				}
				if ref[i].members = ref[i].members[1:]; len(ref[i].members) == 0 {
					ref = slices.Delete(ref, i, i+1)
				}
			default:
				h.pop()
				ref = slices.Delete(ref, i, i+1)
			}
		}
	}
}

// checkClass asserts that heap class c carries want's key, members and
// row.
func checkClass(t *testing.T, h *celfHeap, c lazyClass, want refClass, seed int64, step int, what string) {
	t.Helper()
	members, row := h.nodes[c.lo:c.lo+c.n], h.rows[2*c.row:2*c.row+2]
	if c.gain != want.gain || !slices.Equal(members, want.members) || !slices.Equal(row, want.row) {
		t.Fatalf("seed %d step %d: %s holds key %v, members %v and row %v; want %v, %v and %v",
			seed, step, what, c.gain, members, row, want.gain, want.members, want.row)
	}
}
