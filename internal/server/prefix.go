package server

import (
	"container/list"
	"fmt"

	"fairtcim/internal/fairim"
)

// Seed-set prefix memoization. Greedy influence maximization is
// incremental by nature: the seeds a budget-k solve picks are exactly
// the first k picks of any larger-budget solve over the same sample and
// objective. The cache exploits that by memoizing, per (sample,
// problem, deadline, wrapper), the longest solved seed prefix together
// with the CELF heap snapshot the optimizer held after its last pick and
// the group utilities it computed after each pick. A later request for a
// larger budget replays the prefix (no gain evaluations) and resumes CELF
// from the snapshot; a budget the prefix covers is answered from the
// memo alone, with no estimator and no candidate list. Parity with a
// cold solve — identical seeds, utilities, values and traces — is pinned
// by fairim's warm-start tests.

// prefixKey identifies one memoized greedy prefix. Everything the pick
// sequence depends on is part of the key: the full sample identity
// (graph, engine, sampling budgets, seed), the problem kind, the
// deadline the estimator is bound to (sampleKey.tau is deliberately
// zeroed for forward MC, whose worlds are shared across deadlines, but
// the gains a solve sees are τ-dependent), and the concave wrapper for
// P4.
type prefixKey struct {
	sample  sampleKey
	problem fairim.Problem
	tau     int32
	h       string // concave-wrapper identity (P4 only); "" for P1
}

// prefixEntry is one memo slot; warm is replaced in place when a longer
// prefix for the same key is captured.
type prefixEntry struct {
	key  prefixKey
	warm *fairim.WarmStart
	elem *list.Element
}

// prefixKeyFor decides whether a solve may consume and produce prefix
// state, and keys it. Only plain budgeted CELF solves qualify: cover
// problems have no budget axis to extend along, PlainGreedy skips the
// CELF heap the snapshot captures, and candidate or group-weight
// overrides (or a caller-injected estimator or warm state) change the
// gain landscape the snapshot encodes.
func prefixKeyFor(key sampleKey, spec fairim.ProblemSpec) (prefixKey, bool) {
	if !spec.Problem.IsBudget() || spec.PlainGreedy ||
		spec.GroupWeights != nil || spec.Candidates != nil ||
		spec.Estimator != nil || spec.Warm != nil {
		return prefixKey{}, false
	}
	pk := prefixKey{sample: key, problem: spec.Problem, tau: spec.Tau}
	if spec.Problem == fairim.P4 {
		pk.h = fmt.Sprintf("%#v", spec.H)
	}
	return pk, true
}

// warmFor returns the memoized prefix for key, if any. Any stored
// length helps the caller: shorter than the asked budget resumes CELF
// where it stopped, longer (or equal) answers by pure replay.
func (c *Cache) warmFor(key prefixKey) *fairim.WarmStart {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.prefix[key]
	if !ok {
		return nil
	}
	c.prefixLRU.MoveToFront(e.elem)
	c.prefixHits++
	return e.warm
}

// storeWarm memoizes a solve's captured prefix, keeping the longest
// seen per key — a k=50 state answers every k ≤ 50 by replay and
// extends everything above. Stored state is immutable by contract
// (resume copies the heap before mutating; replay only reads the seeds
// and recorded utilities), so one entry safely serves any number of
// concurrent later solves.
func (c *Cache) storeWarm(key prefixKey, warm *fairim.WarmStart) {
	if warm == nil || warm.Snapshot == nil || len(warm.Seeds) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.prefix[key]; ok {
		c.prefixLRU.MoveToFront(e.elem)
		if len(warm.Seeds) <= len(e.warm.Seeds) {
			return
		}
		e.warm = warm
		c.prefixStores++
		return
	}
	e := &prefixEntry{key: key, warm: warm}
	e.elem = c.prefixLRU.PushFront(e)
	c.prefix[key] = e
	c.prefixStores++
	for len(c.prefix) > c.prefixCap {
		back := c.prefixLRU.Back()
		old := back.Value.(*prefixEntry)
		c.prefixLRU.Remove(back)
		delete(c.prefix, old.key)
	}
}
