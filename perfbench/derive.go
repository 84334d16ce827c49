package main

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/loadgen"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
)

// The served workloads' traffic mix is derived from the repository's own
// session model rather than chosen by hand. deriveMix runs whole MAR
// sessions (scenario.Build, then core.Session under the paper's event-based
// policy and 5+15 budget) while the user walks loadgen's default
// random-waypoint mobility script, and records what each session would send
// to the edge. TestTrafficMixDerived pins the workloads' constants to its
// output, so a change to the model that moves the mix fails the test.

const (
	// mixSessionMS is the virtual length of one derivation session, and the
	// derivation's one assumption: the repository has no model of how long
	// a MAR session lasts. Thirty minutes of use is taken, which puts the
	// largest GP history near 400.
	mixSessionMS = 1_800_000
	// mixSessions derivation sessions cycle through the four scenarios.
	mixSessions = 16
	mixSeed     = 0xd37e
)

// trafficMix is what deriveMix measured.
type trafficMix struct {
	// Activations per session, in session order.
	Activations []int
	// Histories are the GP history sizes, in observations, at which the
	// sessions' post-init suggests were made, sorted: the sizes a server
	// sees when one served session carries all of a user's activations.
	Histories []int
	// ServedPerActivation is the number of post-init suggests per
	// activation: the suggest→observe pairs an activation sends the edge.
	ServedPerActivation float64
	// PerIteration is the number of LOD fetches per BO iteration.
	PerIteration float64
	// CacheHitShare is the share of LOD fetches whose 2%-step key was still
	// in an LRU of the server's mesh-cache capacity: the share a session's
	// mesh cache serves. (sessiond's client sends every fetch to the server.)
	CacheHitShare float64
	// Decimations is the number of LOD fetches recorded.
	Decimations int
}

// lodRecorder is a render.LODProvider that records every fetch and
// attaches the object's full mesh. The simulated session reads only the
// objects' ratios, never their geometry, so the trajectory is the same as
// with real decimation.
type lodRecorder struct {
	full map[string]*mesh.Mesh
	keys []meshKey
}

func (r *lodRecorder) Decimate(object string, ratio float64) (*mesh.Mesh, error) {
	r.keys = append(r.keys, meshKey{Object: object, Step: int(math.Round(ratio * 50))})
	m, ok := r.full[object]
	if !ok {
		return nil, fmt.Errorf("unknown object %q", object)
	}
	return m, nil
}

// derivedSession is one derivation session's record.
type derivedSession struct {
	activations, served, iterations int
	histories                       []int
	keys                            []meshKey
}

// deriveSession runs derivation session i for sessionMS virtual
// milliseconds.
func deriveSession(i int, sessionMS float64) (*derivedSession, error) {
	specs := scenario.All()
	cfg := core.DefaultConfig()
	rng := sim.NewRNG(mixSeed + uint64(i))
	built, err := specs[i%len(specs)].Build(rng.Uint64())
	if err != nil {
		return nil, err
	}
	rec := &lodRecorder{full: make(map[string]*mesh.Mesh)}
	for _, o := range built.Scene.Objects() {
		if rec.full[o.Spec.Name] == nil {
			if rec.full[o.Spec.Name], err = o.Spec.Geometry(); err != nil {
				return nil, err
			}
		}
	}
	built.Runtime.SetLODProvider(rec)
	sess, err := core.NewSession(built.Runtime, core.SessionConfig{HBO: cfg, Mode: core.EventBased}, sim.NewRNG(rng.Uint64()))
	if err != nil {
		return nil, err
	}
	// The walk as loadgen drives it under Config.Mobility.
	mob := loadgen.NewMobility(rng.Uint64(), loadgen.MobilityConfig{}, sessionMS)
	for built.System.Now() < sessionMS {
		d := mob.DistanceAt(built.System.Now())
		for _, o := range built.Scene.Objects() {
			o.Distance = d
		}
		built.Runtime.SyncRenderLoad()
		if err := sess.Step(); err != nil {
			return nil, err
		}
	}
	ds := &derivedSession{keys: rec.keys}
	for _, a := range sess.Activations() {
		if a.Result == nil {
			continue
		}
		ds.activations++
		for k := range a.Result.Iterations {
			if k >= cfg.InitSamples {
				ds.histories = append(ds.histories, ds.iterations+k)
				ds.served++
			}
		}
		ds.iterations += len(a.Result.Iterations)
	}
	return ds, nil
}

// deriveMix runs sessions derivation sessions of sessionMS each, on two
// goroutines, and measures their mix against a mesh cache of cacheCap.
func deriveMix(sessions int, sessionMS float64, cacheCap int) (*trafficMix, error) {
	out := make([]*derivedSession, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < sessions; i += 2 {
				out[i], errs[i] = deriveSession(i, sessionMS)
			}
		}(g)
	}
	wg.Wait()
	tm := &trafficMix{}
	activations, served, iterations, hits := 0, 0, 0, 0
	for i, ds := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		tm.Activations = append(tm.Activations, ds.activations)
		tm.Histories = append(tm.Histories, ds.histories...)
		activations += ds.activations
		served += ds.served
		iterations += ds.iterations
		lru := newKeyLRU(cacheCap)
		for _, k := range ds.keys {
			if lru.touch(k) {
				hits++
			}
		}
		tm.Decimations += len(ds.keys)
	}
	if activations == 0 || tm.Decimations == 0 {
		return nil, fmt.Errorf("derivation sessions made %d activations and %d LOD fetches", activations, tm.Decimations)
	}
	sort.Ints(tm.Histories)
	tm.ServedPerActivation = float64(served) / float64(activations)
	tm.PerIteration = float64(tm.Decimations) / float64(iterations)
	tm.CacheHitShare = float64(hits) / float64(tm.Decimations)
	return tm, nil
}

// strata returns k history sizes at the midpoints of k equal-probability
// strata of the sorted sample.
func strata(sorted []int, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = sorted[int((float64(i)+0.5)/float64(k)*float64(len(sorted)))]
	}
	return out
}

// keyLRU mirrors sessiond's per-session mesh cache: an LRU over 2%-step
// keys of a fixed capacity, refreshed on a hit and filled on a miss.
type keyLRU struct {
	cap   int
	order *list.List // most recent first
	at    map[meshKey]*list.Element
}

func newKeyLRU(capacity int) *keyLRU {
	return &keyLRU{cap: capacity, order: list.New(), at: make(map[meshKey]*list.Element)}
}

// touch reports whether k was cached, and makes it the most recent entry.
func (l *keyLRU) touch(k meshKey) bool {
	if e, ok := l.at[k]; ok {
		l.order.MoveToFront(e)
		return true
	}
	l.at[k] = l.order.PushFront(k)
	if l.order.Len() > l.cap {
		old := l.order.Back()
		l.order.Remove(old)
		delete(l.at, old.Value.(meshKey))
	}
	return false
}

func (l *keyLRU) len() int { return l.order.Len() }

// nth returns the i-th most recent key.
func (l *keyLRU) nth(i int) meshKey {
	e := l.order.Front()
	for ; i > 0; i-- {
		e = e.Next()
	}
	return e.Value.(meshKey)
}

func (l *keyLRU) has(k meshKey) bool {
	_, ok := l.at[k]
	return ok
}
