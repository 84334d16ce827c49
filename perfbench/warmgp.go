package main

import (
	"context"
	"fmt"
	"time"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/sim"
)

// warm-gp shape: warmSessions sessions on two shards, so heavy and light
// sessions share workers. With 48 sizes the suggest-latency distribution is
// dense around its median, so the median does not jump between
// neighbouring sessions' costs from run to run (16 sessions measured twice
// the spread).
const (
	warmSessions = 48
	warmShards   = 2
	warmCallers  = 1
)

// warmHistories are the sessions' initial GP history sizes: the midpoints
// of 48 equal-probability strata of the history sizes at which the derived
// traffic mix's sessions ask for a suggest (see derive.go; pinned by
// TestTrafficMixDerived). They are spread almost evenly, because a
// session's history grows by a steady 20 per activation over its life.
var warmHistories = [warmSessions]int{
	7, 11, 15, 19, 28, 32, 37, 46, 51, 55, 65, 70, 75, 85, 91, 96,
	107, 112, 118, 129, 135, 146, 153, 159, 171, 179, 192, 205, 213, 226, 234, 247,
	255, 269, 277, 290, 298, 311, 319, 332, 345, 354, 367, 375, 388, 396, 410, 419,
}

// warmPlan is warm-gp's input: per session its id, open parameters and
// initial history size, and which set-up caller grows it.
type warmPlan struct {
	seed     uint64
	sessions []*session
	history  []int
	owner    [callers][]int
}

// planWarmGP draws the plan from the seed. The plan's shape is the same
// for every seed, so seeds compare like with like: history sizes are
// warmHistories, sessions of adjacent sizes sit on alternate shards, and the
// set-up callers split the sizes in a snake order so each grows the same
// history. The seed draws the ids' optimizers, the cost surfaces and the
// order in which each set-up caller takes its sessions.
func planWarmGP(seed uint64, t *tracer) *warmPlan {
	rng := sim.NewRNG(mix(seed, "warm-gp"))
	p := &warmPlan{seed: seed}
	for i := 0; i < warmSessions; i++ {
		p.history = append(p.history, warmHistories[i])
		id := ""
		for k := 0; ; k++ {
			id = fmt.Sprintf("wg-%d-%d", i, k)
			if shardOf(id, warmShards) == i%warmShards {
				break
			}
		}
		p.sessions = append(p.sessions, newSession(id, 5, rng, t))
		c := i % (2 * callers)
		if c >= callers {
			c = 2*callers - 1 - c
		}
		p.owner[c] = append(p.owner[c], i)
	}
	for c := range p.owner {
		own := p.owner[c]
		order := perm(rng, len(own))
		shuffled := make([]int, len(own))
		for j, k := range order {
			shuffled[j] = own[k]
		}
		p.owner[c] = shuffled
	}
	return p
}

func warmConfig() sessiond.Config {
	return sessiond.Config{Shards: warmShards, SessionsPerShard: 32, QueueBound: 32, RetryAfterSec: 1, MaxBatch: 16, MeshCacheCap: 8}
}

type warmGP struct {
	plan *warmPlan
	srv  *server
	cl   *client
	sc   *sessiond.StreamClient
	t    *tracer
}

// setupWarmGP starts the server and grows every session's GP history to
// its planned size through served observes of seeded random points, then
// warms each with one suggest→observe iteration (its first GP fit).
func setupWarmGP(seed uint64, t *tracer, _ string) (instance, error) {
	w := &warmGP{plan: planWarmGP(seed, t), t: t}
	var err error
	if w.srv, err = startServer(warmConfig(), nil, t); err != nil {
		return nil, err
	}
	if w.cl, err = newClient(w.srv.base, mix(seed, "warm-gp/jitter"), t); err != nil {
		_ = w.srv.close()
		return nil, err
	}
	if w.sc, err = sessiond.NewStreamClient(w.cl.ec); err != nil {
		_ = w.close()
		return nil, err
	}
	recs := runCallers(callers, func(i int, rec *recorder) {
		c := w.caller(context.Background(), rec)
		for _, si := range w.plan.owner[i] {
			s := w.plan.sessions[si]
			if c.open(s) != nil {
				return
			}
			grow := sim.NewRNG(s.seed ^ 0x9e3779b97f4a7c15)
			for s.n < w.plan.history[si] {
				if c.observe(s, domain.Sample(grow)) != nil {
					return
				}
			}
			if c.iterate(s) != nil {
				return
			}
		}
	})
	if err := setupErr(recs); err != nil {
		_ = w.close()
		return nil, err
	}
	return w, nil
}

func (w *warmGP) caller(ctx context.Context, rec *recorder) *caller {
	return &caller{ctx: ctx, conn: streamConn{w.sc}, rec: rec, t: w.t}
}

// run has one caller cycle through all sessions, one suggest→observe
// iteration per visit, with no think time. Every cycle visits each session
// once, in a fresh seeded order, and a cycle is never cut short, so every
// run weighs the history sizes alike. One caller, not two: on the
// reference machine a second caller added no throughput (about 42 it/s
// either way) and only queued behind the first one's Next, so the
// medians measured that queue and moved with the machine's load (the
// observe median spread 0.28 over 10 seeds).
func (w *warmGP) run(ctx context.Context, deadline time.Time) []*recorder {
	return runCallers(warmCallers, func(_ int, rec *recorder) {
		c := w.caller(ctx, rec)
		rng := sim.NewRNG(mix(w.plan.seed, "warm-gp/order"))
		for time.Now().Before(deadline) {
			for _, k := range perm(rng, len(w.plan.sessions)) {
				if c.iterate(w.plan.sessions[k]) != nil {
					return
				}
			}
		}
	})
}

func (w *warmGP) close() error {
	if w.sc != nil {
		_ = w.sc.Close()
	}
	err := w.srv.close()
	w.cl.close()
	return err
}

func (w *warmGP) describe() map[string]any {
	return map[string]any{
		"transport": "stream", "connections": 1, "callers": warmCallers, "sessions": warmSessions,
		"histories": warmHistories, "sessiond": warmConfig(),
	}
}

// setupErr turns any failure a set-up recorder saw into an error: set-up
// builds the state the timed part measures, so it must be exact.
func setupErr(recs []*recorder) error {
	for _, r := range recs {
		if r.failed > 0 {
			return fmt.Errorf("set-up failed: %v", r.notes)
		}
	}
	return nil
}
