package main

import (
	"math"
	"testing"
)

// TestTrafficMixDerived re-derives the served workloads' traffic mix from
// the repository's session model and checks that the workloads' constants
// are what it gives. When the model changes, update the constants (and the
// README's table) from the logged values.
func TestTrafficMixDerived(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 thirty-minute sessions")
	}
	m, err := deriveMix(mixSessions, mixSessionMS, meshCacheCap)
	if err != nil {
		t.Fatal(err)
	}
	got := strata(m.Histories, warmSessions)
	t.Logf("activations per session %v", m.Activations)
	t.Logf("%d post-init suggests, history strata %v", len(m.Histories), got)
	t.Logf("served pairs per activation %.4f, LOD fetches per iteration %.4f, mesh-cache hit share %.4f over %d fetches",
		m.ServedPerActivation, m.PerIteration, m.CacheHitShare, m.Decimations)
	if [warmSessions]int(got) != warmHistories {
		t.Errorf("warmHistories = %v, derivation gives %v", warmHistories, got)
	}
	if m.ServedPerActivation != visitPairs {
		t.Errorf("visitPairs = %d, derivation gives %.4f pairs per activation", visitPairs, m.ServedPerActivation)
	}
	if math.Abs(m.PerIteration-lodPerIteration) > 0.005 {
		t.Errorf("lodPerIteration = %v, derivation gives %.4f", lodPerIteration, m.PerIteration)
	}
	if math.Abs(m.CacheHitShare-lodRepeatShare) > 0.005 {
		t.Errorf("lodRepeatShare = %v, derivation gives %.4f", lodRepeatShare, m.CacheHitShare)
	}
}

// TestKeyLRUMirrorsMeshCache checks the slot's mirror against the rule of
// sessiond's mesh cache: a hit refreshes, a miss fills and pushes out the
// least recently used key beyond capacity.
func TestKeyLRUMirrorsMeshCache(t *testing.T) {
	l := newKeyLRU(2)
	a, b, c := meshKey{"a", 10}, meshKey{"b", 10}, meshKey{"c", 10}
	steps := []struct {
		k   meshKey
		hit bool
	}{{a, false}, {b, false}, {a, true}, {c, false}, {b, false}, {a, false}, {b, true}}
	for i, s := range steps {
		if got := l.touch(s.k); got != s.hit {
			t.Fatalf("step %d: touch(%v) = %v, want %v", i, s.k, got, s.hit)
		}
	}
	if l.len() != 2 || l.nth(0) != b || l.nth(1) != a {
		t.Errorf("order after the sequence: len %d, %v", l.len(), l.order)
	}
}

// TestNextMeshRepeatsHitCache draws many keys and checks the repeat share
// and that every repeat is a key the mirror held.
func TestNextMeshRepeatsHitCache(t *testing.T) {
	s := newSlots("lod", defaultSeed, 1, nil)[0]
	objects := []string{"a", "b", "c", "d"}
	const draws = 20000
	repeats := 0
	for i := 0; i < draws; i++ {
		before := newKeyLRU(meshCacheCap)
		for j := s.cache.len() - 1; j >= 0; j-- {
			before.touch(s.cache.nth(j))
		}
		k, repeat := s.nextMesh(objects)
		if repeat != before.has(k) {
			t.Fatalf("draw %d: repeat=%v but cached=%v", i, repeat, before.has(k))
		}
		if repeat {
			repeats++
		}
	}
	if share := float64(repeats) / draws; math.Abs(share-lodRepeatShare) > 0.02 {
		t.Errorf("repeat share %.4f, want %v", share, lodRepeatShare)
	}
}
