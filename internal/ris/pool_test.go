package ris

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fairtcim/internal/generate"
	"fairtcim/internal/graph"
	"fairtcim/internal/xrand"
)

// TestScratchEpochWrap: when a scratch's 32-bit epoch wraps, its visited
// array is cleared, so marks left from the previous cycle of epochs cannot
// pass for the reissued ones. RR sets drawn across the wrap, on a scratch
// whose every mark equals the first epoch after it, must equal those a
// fresh scratch draws. Every arc is live, so each set holds its root's
// whole 4-hop in-neighbourhood and a stale mark would cut it short.
func TestScratchEpochWrap(t *testing.T) {
	const n = 50
	b := graph.NewBuilder(n)
	for v := range graph.NodeID(n) {
		b.AddEdge(v, (v+1)%n, 1)
		b.AddEdge(v, (v+2)%n, 1)
	}
	g := b.MustBuild()
	draw := func(sc *samplerScratch) [][]graph.NodeID {
		var sets [][]graph.NodeID
		for i := range 200 {
			start := len(sc.arena)
			reverseBFS(g, graph.NodeID(i%g.N()), 4, xrand.New(int64(i)), sc)
			sets = append(sets, slices.Clone(sc.arena[start:]))
		}
		return sets
	}
	want := draw(&samplerScratch{visited: make([]uint32, g.N())})
	stale := &samplerScratch{visited: make([]uint32, g.N()), epoch: math.MaxUint32}
	for v := range stale.visited {
		stale.visited[v] = 1
	}
	if got := draw(stale); !reflect.DeepEqual(got, want) {
		t.Fatal("RR sets drawn across an epoch wrap differ from a fresh scratch's")
	}
}

// TestPooledScratchReuseAcrossConcurrentSamples hammers Sample from many
// goroutines so pooled sampler scratches are handed between concurrent
// runs (and across distinct graphs mid-flight). Determinism must survive:
// a pooled visited array carries stale epochs from an unrelated run, and
// the scratch's own epoch counter is what keeps them from ever matching.
// Run under -race this also proves the pool hand-off itself is clean.
func TestPooledScratchReuseAcrossConcurrentSamples(t *testing.T) {
	g1, err := generate.TwoBlock(generate.DefaultTwoBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	g2 := generate.TwoStars()

	ref1, err := Sample(g1, 4, []int{60, 60}, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := Sample(g2, 3, []int{40, 40}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				var got, want *Collection
				var err error
				if (i+rep)%2 == 0 {
					got, err = Sample(g1, 4, []int{60, 60}, 9, 3)
					want = ref1
				} else {
					got, err = Sample(g2, 3, []int{40, 40}, 5, 3)
					want = ref2
				}
				if err != nil {
					errs <- err
					return
				}
				if got.NumRefs() != want.NumRefs() {
					errs <- errors.New("pooled sampling lost determinism: ref count drifted")
					return
				}
				for j := range got.refs {
					if got.refs[j] != want.refs[j] {
						errs <- errors.New("pooled sampling lost determinism: inverted index drifted")
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSampleCancel: a closed cancel channel stops sampling between RR sets
// with context.Canceled — a fresh pool, an accuracy-sized one and a
// partial refresh alike — and a nil channel never interferes.
func TestSampleCancel(t *testing.T) {
	g, err := generate.TwoBlock(generate.DefaultTwoBlock(2))
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	if _, err := SampleCancel(g, 4, []int{500, 500}, 3, 2, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sample: got %v, want context.Canceled", err)
	}
	if _, err := SampleForAccuracyCancel(g, 4, 5, 0.3, 0.1, 3, 2, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled accuracy sample: got %v, want context.Canceled", err)
	}
	if _, err := SampleCancel(g, 4, []int{50, 50}, 3, 2, nil); err != nil {
		t.Fatalf("nil cancel: %v", err)
	}

	// The delta of TestRefreshPartialParity dirties half the pool, under
	// the full-rebuild threshold, so Refresh resamples only the dirty sets.
	stars := generate.TwoStars()
	col, err := Sample(stars, 3, []int{40, 40}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, res, err := stars.ApplyDelta(graph.Delta{Edges: []graph.EdgeDelta{{From: 1, To: 0, P: 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := col.Refresh(g2, res.TouchedHeads, 9, 2, 0, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled partial refresh: got %v, want context.Canceled", err)
	}
	if _, stats, err := col.Refresh(g2, res.TouchedHeads, 9, 2, 0, nil); err != nil || stats.FullRebuild {
		t.Fatalf("nil-cancel refresh: stats %+v, err %v; want a partial refresh", stats, err)
	}
}
