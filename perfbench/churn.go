package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/sim"
)

// Visit shape shared by churn-stream and lod-json. A visit is one HBO
// activation as the edge sees it: an open (a restore when the session was
// evicted while idle), then visitPairs suggest→observe pairs, the post-init
// iterations of the paper's 5+15 budget (derived in derive.go). A session
// lives for as many visits as its init budget holds, so it never leaves BO
// init; the init budget is drawn up to sessiond's cap of 100.
const (
	minInit      = 60
	maxInit      = 100
	visitPairs   = 15
	churnShards  = 2
	churnPerShrd = 16
	churnSlots   = 128 // four times churn-stream's capacity of 32 sessions
)

// slot is one seat of a visited population. When its session's life ends
// it is closed and the slot opens a fresh generation under a new id; all
// of a slot's choices come from its own seeded stream, so its op sequence
// is a pure function of (workload, seed, slot) whatever the interleaving.
type slot struct {
	name   string
	idx    int
	gen    int
	rng    *sim.RNG
	sess   *session
	life   int
	visits int
	// cache mirrors the server's mesh cache of lod-json's session.
	cache *keyLRU
}

func newSlots(name string, seed uint64, n int, t *tracer) []*slot {
	slots := make([]*slot, n)
	for i := range slots {
		s := &slot{name: name, idx: i, rng: sim.NewRNG(mix(seed, fmt.Sprintf("%s/slot/%d", name, i)))}
		s.nextGeneration(t)
		slots[i] = s
	}
	return slots
}

func (s *slot) nextGeneration(t *tracer) {
	init := minInit + s.rng.Intn(maxInit-minInit+1)
	s.sess = newSession(fmt.Sprintf("%s-%d-g%d", s.name, s.idx, s.gen), init, s.rng, t)
	s.life = init / visitPairs
	s.visits = 0
	s.cache = newKeyLRU(meshCacheCap)
	s.gen++
}

// visitOrder is one caller's seeded stream of slot choices among the slots
// it owns (slot index ≡ caller mod n, for n callers).
type visitOrder struct {
	rng   *sim.RNG
	owned []int
}

func newVisitOrder(name string, seed uint64, c, n, slots int) *visitOrder {
	v := &visitOrder{rng: sim.NewRNG(mix(seed, fmt.Sprintf("%s/caller/%d", name, c)))}
	for i := c; i < slots; i += n {
		v.owned = append(v.owned, i)
	}
	return v
}

func (v *visitOrder) next() int { return v.owned[v.rng.Intn(len(v.owned))] }

// visit is one session visit: open (a restore when the session was
// evicted), visitPairs suggest→observe pairs each followed by afterPair's
// work, and a close when the session's life is over.
func visit(c *caller, s *slot, afterPair func() error) error {
	if err := c.open(s.sess); err != nil {
		return err
	}
	for k := 0; k < visitPairs; k++ {
		if err := c.iterate(s.sess); err != nil {
			return err
		}
		if afterPair != nil {
			if err := afterPair(); err != nil {
				return err
			}
		}
	}
	s.visits++
	if s.visits == s.life {
		if err := c.closeSession(s.sess); err != nil {
			return err
		}
		s.nextGeneration(c.t)
	}
	return nil
}

func churnConfig(store sessiond.SessionStore) sessiond.Config {
	return sessiond.Config{Shards: churnShards, SessionsPerShard: churnPerShrd, QueueBound: 32, RetryAfterSec: 1,
		MaxBatch: 16, MeshCacheCap: 8, Store: store}
}

// churnStream is the churn-stream workload: a population four times the
// server's capacity, so most revisits find their session evicted and
// snapshotted, and the open restores it from the file store.
type churnStream struct {
	seed  uint64
	dir   string
	slots []*slot
	srv   *server
	cl    [callers]*client
	sc    [callers]*sessiond.StreamClient
	t     *tracer
}

func setupChurn(seed uint64, t *tracer, tmp string) (instance, error) {
	w := &churnStream{seed: seed, dir: filepath.Join(tmp, "store"), slots: newSlots("ch", seed, churnSlots, t), t: t}
	store, err := snapstore.Open(nil, w.dir, snapstore.Options{})
	if err != nil {
		return nil, err
	}
	if w.srv, err = startServer(churnConfig(store), nil, t); err != nil {
		_ = store.Close()
		return nil, err
	}
	for i := range w.cl {
		if w.cl[i], err = newClient(w.srv.base, mix(seed, fmt.Sprintf("ch/jitter/%d", i)), t); err != nil {
			_ = w.close()
			return nil, err
		}
		if w.sc[i], err = sessiond.NewStreamClient(w.cl[i].ec); err != nil {
			_ = w.close()
			return nil, err
		}
	}
	// Visit every slot once, so the timed part starts with the population
	// spread over memory and the store.
	recs := runCallers(callers, func(i int, rec *recorder) {
		c := w.caller(i, context.Background(), rec)
		for si := i; si < len(w.slots); si += callers {
			if visit(c, w.slots[si], nil) != nil {
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

func (w *churnStream) caller(i int, ctx context.Context, rec *recorder) *caller {
	return &caller{ctx: ctx, conn: streamConn{w.sc[i]}, rec: rec, t: w.t}
}

func (w *churnStream) run(ctx context.Context, deadline time.Time) []*recorder {
	return runCallers(callers, func(i int, rec *recorder) {
		c := w.caller(i, ctx, rec)
		order := newVisitOrder("ch", w.seed, i, callers, len(w.slots))
		for time.Now().Before(deadline) {
			if visit(c, w.slots[order.next()], nil) != nil {
				return
			}
		}
	})
}

func (w *churnStream) close() error {
	for _, sc := range w.sc {
		if sc != nil {
			_ = sc.Close()
		}
	}
	var err error
	if w.srv != nil {
		err = w.srv.close()
	}
	for _, cl := range w.cl {
		if cl != nil {
			cl.close()
		}
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *churnStream) describe() map[string]any {
	return map[string]any{
		"transport": "stream", "connections": callers, "population": churnSlots,
		"capacity": churnShards * churnPerShrd, "store": "snapstore.FileStore, no fsync",
		"sessiond": churnConfig(nil),
	}
}
