package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/render"
)

// lod-json shape: a population within capacity, each BO iteration
// followed by the LOD fetches the runtime makes after enforcing a
// configuration. lodPerIteration fetches per iteration, of which
// lodRepeatShare re-request a key the session's mesh cache holds; both are
// derived in derive.go and pinned by TestTrafficMixDerived.
const (
	lodShards       = 2
	lodPerShard     = 64
	lodSlots        = 64
	lodPerIteration = 7.69
	lodRepeatShare  = 0.46
	meshCacheCap    = 8
	// lodCallers drives the timed part with one caller. With two, their
	// decimations kept both CPUs of the reference machine busy, so the
	// sub-millisecond suggest and observe latencies measured the Go run
	// queue: their medians spread 0.25 to 0.26 over 10 seeds, more than the
	// largest bound. With one caller they spread about 0.11 over 5 seeds.
	lodCallers = 1
)

// lodSteps are the ratio steps requested, in the mesh caches' 2% units
// (ratio = step/50).
var lodSteps = []int{10, 15, 20, 25, 30, 40}

// meshKey is one decimation request: an object at a ratio step.
type meshKey struct {
	Object string
	Step   int
}

func (k meshKey) ratio() float64 { return float64(k.Step) / 50 }

// catalog is Table II's SC1 and SC2 objects, the decimator's catalog.
func catalog() []render.ObjectSpec {
	var specs []render.ObjectSpec
	for _, oc := range append(render.SC1(), render.SC2()...) {
		specs = append(specs, oc.Spec)
	}
	return specs
}

// nextMesh draws a slot's next decimation: with probability
// lodRepeatShare (once it has any) one of the keys its mesh cache holds,
// otherwise a fresh key over the whole catalog that the cache does not
// hold. repeat reports which it drew; the slot's mirror of the cache is
// updated as the server's is.
func (s *slot) nextMesh(objects []string) (k meshKey, repeat bool) {
	if s.cache.len() > 0 && s.rng.Float64() < lodRepeatShare {
		k, repeat = s.cache.nth(s.rng.Intn(s.cache.len())), true
	} else {
		for k = (meshKey{}); k.Object == "" || s.cache.has(k); {
			k = meshKey{Object: objects[s.rng.Intn(len(objects))], Step: lodSteps[s.rng.Intn(len(lodSteps))]}
		}
	}
	s.cache.touch(k)
	return k, repeat
}

// fetches draws how many LOD fetches follow one iteration, lodPerIteration
// on average.
func (s *slot) fetches() int {
	n := int(math.Floor(lodPerIteration))
	if s.rng.Float64() < lodPerIteration-float64(n) {
		n++
	}
	return n
}

func lodConfig() sessiond.Config {
	return sessiond.Config{Shards: lodShards, SessionsPerShard: lodPerShard, QueueBound: 32, RetryAfterSec: 1,
		MaxBatch: 16, MeshCacheCap: meshCacheCap}
}

// lodJSON is the lod-json workload: every session op and decimation over
// the JSON routes, against the QEM decimator behind edge.Server.
type lodJSON struct {
	seed      uint64
	slots     []*slot
	objects   []string
	triangles map[meshKey]int
	srv       *server
	cl        *client
	t         *tracer
}

// setupLOD builds the decimator, warms its geometry and records the
// reference triangle count of every (object, ratio step), then opens every
// slot's session and fetches meshes until its cache is full. Every cache
// is then full whether or not the timed part visits its session, so the
// live heap holds 512 meshes at the end of every run.
func setupLOD(seed uint64, t *tracer, _ string) (instance, error) {
	specs := catalog()
	dec, err := edge.NewServer(specs)
	if err != nil {
		return nil, err
	}
	w := &lodJSON{seed: seed, slots: newSlots("lod", seed, lodSlots, t), triangles: make(map[meshKey]int), t: t}
	for _, sp := range specs {
		w.objects = append(w.objects, sp.Name)
		for _, step := range lodSteps {
			k := meshKey{Object: sp.Name, Step: step}
			m, err := dec.Decimate(k.Object, k.ratio(), false)
			if err != nil {
				return nil, fmt.Errorf("reference decimation %v: %w", k, err)
			}
			w.triangles[k] = m.TriangleCount()
		}
	}
	if w.srv, err = startServer(lodConfig(), dec, t); err != nil {
		return nil, err
	}
	if w.cl, err = newClient(w.srv.base, mix(seed, "lod/jitter"), t); err != nil {
		_ = w.srv.close()
		return nil, err
	}
	recs := runCallers(callers, func(i int, rec *recorder) {
		c := w.caller(context.Background(), rec)
		for si := i; si < len(w.slots); si += callers {
			s := w.slots[si]
			if c.open(s.sess) != nil {
				return
			}
			for s.cache.len() < meshCacheCap {
				if w.decimate(c, s) != nil {
					return
				}
			}
		}
	})
	if err := setupErr(recs); err != nil {
		_ = w.close()
		return nil, err
	}
	return w, nil
}

func (w *lodJSON) caller(ctx context.Context, rec *recorder) *caller {
	return &caller{ctx: ctx, conn: jsonConn{w.cl.ec}, rec: rec, t: w.t}
}

// visit is the shared visit shape, each iteration followed by its LOD
// fetches.
func (w *lodJSON) visit(c *caller, s *slot) error {
	return visit(c, s, func() error {
		for k, n := 0, s.fetches(); k < n; k++ {
			if err := w.decimate(c, s); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *lodJSON) decimate(c *caller, s *slot) error {
	key, repeat := s.nextMesh(w.objects)
	req := sessiond.DecimateRequest{ID: s.sess.id, Object: key.Object, Ratio: key.ratio()}
	ctx := withCall(c.ctx, c.t, s.sess.id, "decimate")
	start := time.Now()
	resp, err := jsonConn{w.cl.ec}.decimate(ctx, req)
	d := time.Since(start)
	if err == nil {
		err = checkMesh(resp.Mesh.ToMesh(), resp.Triangles, w.triangles[key])
	}
	if err == nil && repeat && !resp.Cached {
		err = fmt.Errorf("session %s: repeated %v missed its mesh cache", s.sess.id, key)
	}
	c.rec.call("decimate", d, err)
	if err == nil {
		c.rec.decimates++
		if resp.Cached {
			c.rec.meshHits++
		}
	}
	return err
}

func (w *lodJSON) run(ctx context.Context, deadline time.Time) []*recorder {
	return runCallers(lodCallers, func(i int, rec *recorder) {
		c := w.caller(ctx, rec)
		order := newVisitOrder("lod", w.seed, i, lodCallers, len(w.slots))
		for time.Now().Before(deadline) {
			if w.visit(c, w.slots[order.next()]) != nil {
				return
			}
		}
	})
}

func (w *lodJSON) close() error {
	err := w.srv.close()
	w.cl.close()
	return err
}

func (w *lodJSON) describe() map[string]any {
	return map[string]any{
		"transport": "json", "callers": lodCallers, "population": lodSlots,
		"capacity": lodShards * lodPerShard, "objects": len(w.objects), "ratio_steps": lodSteps,
		"fetches_per_iteration": lodPerIteration, "repeat_share": lodRepeatShare, "sessiond": lodConfig(),
	}
}
