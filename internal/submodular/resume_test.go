package submodular

import (
	"slices"
	"testing"
	"testing/quick"

	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// TestCaptureResumeMatchesColdRun is the prefix-extension parity pin at
// the optimizer level: running CELF to budget k, snapshotting, replaying
// the picks onto a fresh objective, and resuming to budget K must produce
// exactly the seeds, values, and picks of one cold budget-K run — not
// merely a solution of equal quality.
func TestCaptureResumeMatchesColdRun(t *testing.T) {
	check := func(seed int64) bool {
		factory, cands := randomCoverage(seed, 30, 50)
		const small, big = 4, 9

		cold, err := LazyGreedyMax(factory(), cands, big)
		if err != nil {
			t.Fatal(err)
		}

		warmObj := factory()
		prefix, snap, err := LazyGreedyMaxCapture(warmObj, cands, small, nil)
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			// The instance saturated below the small budget; the cold run
			// stopped at the same point, which is parity too.
			return len(cold.Seeds) == len(prefix.Seeds)
		}
		replayObj := factory()
		for _, v := range prefix.Seeds {
			replayObj.Add(v)
		}
		ext, _, err := LazyGreedyMaxResume(replayObj, snap, big-small)
		if err != nil {
			t.Fatal(err)
		}

		joined := append(append([]graph.NodeID(nil), prefix.Seeds...), ext.Seeds...)
		if len(joined) != len(cold.Seeds) {
			t.Fatalf("seed %d: warm path picked %d seeds, cold %d", seed, len(joined), len(cold.Seeds))
		}
		for i := range joined {
			if joined[i] != cold.Seeds[i] {
				t.Fatalf("seed %d: pick %d is %d warm vs %d cold", seed, i, joined[i], cold.Seeds[i])
			}
		}
		values := append(append([]float64(nil), prefix.Values...), ext.Values...)
		for i := range values {
			if values[i] != cold.Values[i] {
				t.Fatalf("seed %d: value %d is %v warm vs %v cold", seed, i, values[i], cold.Values[i])
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestResumeDoesNotMutateSnapshot: one snapshot must serve several
// extensions — the server's prefix cache hands the same snapshot to every
// later query — so Resume may not write through to it.
func TestResumeDoesNotMutateSnapshot(t *testing.T) {
	factory, cands := randomCoverage(7, 30, 50)
	prefix, snap, err := LazyGreedyMaxCapture(factory(), cands, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	classes, nodes, rows := slices.Clone(snap.classes), slices.Clone(snap.nodes), slices.Clone(snap.rows)

	extend := func() []graph.NodeID {
		obj := factory()
		for _, v := range prefix.Seeds {
			obj.Add(v)
		}
		ext, _, err := LazyGreedyMaxResume(obj, snap, 5)
		if err != nil {
			t.Fatal(err)
		}
		return ext.Seeds
	}
	first := extend()
	if !slices.Equal(snap.classes, classes) || !slices.Equal(snap.nodes, nodes) || !slices.Equal(snap.rows, rows) {
		t.Fatalf("resume mutated the snapshot: classes %v -> %v, nodes %v -> %v, rows %v -> %v", classes, snap.classes, nodes, snap.nodes, rows, snap.rows)
	}
	second := extend()
	if len(first) != len(second) {
		t.Fatalf("repeat extension differs: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("repeat extension differs at %d: %v vs %v", i, first, second)
		}
	}
}

// TestResumeValidation covers the error paths.
func TestResumeValidation(t *testing.T) {
	factory, cands := randomCoverage(9, 10, 20)
	if _, _, err := LazyGreedyMaxResume(factory(), nil, 3); err == nil {
		t.Error("nil snapshot accepted")
	}
	_, snap, err := LazyGreedyMaxCapture(factory(), cands, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LazyGreedyMaxResume(factory(), snap, -1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, _, err := LazyGreedyMaxCapture(factory(), cands, -1, nil); err == nil {
		t.Error("negative capture budget accepted")
	}
	// A precomputed first pass holds per-group gains, so only a
	// GroupObjective takes one, and only at len(candidates)·G entries.
	if _, _, err := LazyGreedyMaxCapture(factory(), cands, 2, make([]float64, len(cands))); err == nil {
		t.Error("initial gains accepted for an objective without groups")
	}
	if _, err := GreedyCoverInit(factory(), cands, 1, 0, make([]float64, len(cands))); err == nil {
		t.Error("cover accepted initial gains for an objective without groups")
	}
	grouped := tieGroupCoverage(xrand.New(3), len(cands), 12)
	width := len(grouped().(GroupObjective).Utilities())
	if _, _, err := LazyGreedyMaxCapture(grouped(), cands, 2, make([]float64, len(cands)*width+1)); err == nil {
		t.Error("initial gains of the wrong length accepted")
	}
	// A snapshot's classes keep rows exactly when its objective does, so
	// neither kind resumes on the other.
	_, rowSnap, err := LazyGreedyMaxCapture(grouped(), cands, 2, nil)
	if err != nil || rowSnap == nil || len(rowSnap.classes) == 0 {
		t.Fatalf("grouped capture: snapshot %+v, err %v", rowSnap, err)
	}
	if _, _, err := LazyGreedyMaxResume(factory(), rowSnap, 1); err == nil {
		t.Error("a snapshot with rows resumed on an objective without")
	}
	if _, _, err := LazyGreedyMaxResume(grouped(), snap, 1); err == nil {
		t.Error("a snapshot without rows resumed on an objective with them")
	}
}

// TestCaptureAtLastPositivePick: a run that fills its budget with the last
// candidate that can gain still returns a snapshot, empty, so the prefix
// stays memoizable; a run that runs out before its budget returns none.
func TestCaptureAtLastPositivePick(t *testing.T) {
	sets := [][]int{{0}, {}, {1}}
	weights := []float64{1, 1}
	cands := []graph.NodeID{0, 1, 2}
	res, snap, err := LazyGreedyMaxCapture(newCoverage(sets, weights), cands, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 || snap == nil || len(snap.classes) != 0 || snap.round != 2 {
		t.Fatalf("budget 2: seeds %v, snapshot %+v; want 2 seeds and an empty snapshot at round 2", res.Seeds, snap)
	}
	if res, snap, err = LazyGreedyMaxCapture(newCoverage(sets, weights), cands, 3, nil); err != nil || len(res.Seeds) != 2 || snap != nil {
		t.Fatalf("budget 3: seeds %v, snapshot %+v, err %v; want 2 seeds and no snapshot", res.Seeds, snap, err)
	}
}
