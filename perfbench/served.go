package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/sim"
	"github.com/mar-hbo/hbo/internal/tasks"
)

// Every served session optimizes the paper's BO input: one share per
// compute resource plus the triangle ratio, with the paper's floor.
const (
	resources = tasks.NumResources
	rmin      = 0.1
)

// callers is the closed loop's width: two goroutines, each waiting for
// every reply before it sends its next request.
const callers = 2

var domain = bo.Domain{N: resources, RMin: rmin}

// server is one in-process session service behind a loopback listener.
type server struct {
	svc   *sessiond.Service
	hs    *http.Server
	base  string
	done  chan struct{}
	store sessiond.SessionStore
}

// startServer builds the service and serves it on 127.0.0.1. In the traced
// run the store and decimator get timing decorators, the handler a span
// wrapper, and the service the tracer's obs registry. dec may be nil.
func startServer(cfg sessiond.Config, dec sessiond.Decimator, t *tracer) (*server, error) {
	store := cfg.Store
	if t != nil {
		if cfg.Store != nil {
			cfg.Store = &timedStore{SessionStore: cfg.Store, t: t}
		}
		if dec != nil {
			dec = &timedDecimator{next: dec, t: t}
		}
	}
	svc, err := sessiond.New(cfg, dec)
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if t != nil {
		svc.SetObserver(t.reg)
		h = t.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:   svc,
		hs:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
		store: store,
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, nil
}

// close shuts the listener down, waits for in-flight handlers (clients
// must have closed their streams first), then stops the shard workers and
// closes the store.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if err != nil {
		_ = s.hs.Close()
	}
	<-s.done
	s.svc.Close()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// client is the benchmark's edge client: the real edge.Client stack over a
// pooled transport capped at the loop's width, traced when t is non-nil.
type client struct {
	ec *edge.Client
	tr *http.Transport
}

func newClient(base string, jitterSeed uint64, t *tracer) (*client, error) {
	cfg := edge.DefaultClientConfig()
	cfg.JitterSeed = jitterSeed
	tr := edge.NewPooledTransport(callers)
	tr.MaxConnsPerHost = callers
	cfg.Transport = tr
	if t != nil {
		cfg.Transport = &traceTransport{next: tr, t: t}
	}
	ec, err := edge.NewClientWithConfig(base, 16, cfg)
	if err != nil {
		return nil, err
	}
	if t != nil {
		ec.SetObserver(t.reg)
	}
	return &client{ec: ec, tr: tr}, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// conn is one transport's view of the session ops. Both implementations
// go through edge.Client's retry, backoff and breaker stack.
type conn interface {
	open(ctx context.Context, req sessiond.OpenRequest) (sessiond.OpenResponse, error)
	suggest(ctx context.Context, id string) (sessiond.SuggestResponse, error)
	observe(ctx context.Context, id string, index int, p []float64, cost float64) (sessiond.ObserveResponse, error)
	closeSession(ctx context.Context, id string) (sessiond.CloseResponse, error)
}

// streamConn carries session ops as binary frames over one multiplexed
// /session/stream connection.
type streamConn struct{ sc *sessiond.StreamClient }

func (c streamConn) open(ctx context.Context, req sessiond.OpenRequest) (sessiond.OpenResponse, error) {
	return c.sc.Open(ctx, req)
}

func (c streamConn) suggest(ctx context.Context, id string) (sessiond.SuggestResponse, error) {
	return c.sc.Suggest(ctx, id)
}

func (c streamConn) observe(ctx context.Context, id string, index int, p []float64, cost float64) (sessiond.ObserveResponse, error) {
	return c.sc.Observe(ctx, id, index, p, cost)
}

func (c streamConn) closeSession(ctx context.Context, id string) (sessiond.CloseResponse, error) {
	return c.sc.CloseSession(ctx, id)
}

// jsonConn carries session ops as JSON POSTs.
type jsonConn struct{ ec *edge.Client }

func (c jsonConn) open(ctx context.Context, req sessiond.OpenRequest) (resp sessiond.OpenResponse, err error) {
	err = c.ec.PostJSON(ctx, "/session/open", req, &resp)
	return resp, err
}

func (c jsonConn) suggest(ctx context.Context, id string) (resp sessiond.SuggestResponse, err error) {
	err = c.ec.PostJSON(ctx, "/session/suggest", sessiond.SuggestRequest{ID: id}, &resp)
	return resp, err
}

// observe ignores index: the JSON route appends unconditionally.
func (c jsonConn) observe(ctx context.Context, id string, _ int, p []float64, cost float64) (resp sessiond.ObserveResponse, err error) {
	err = c.ec.PostJSON(ctx, "/session/observe", sessiond.ObserveRequest{ID: id, Point: p, Cost: cost}, &resp)
	return resp, err
}

func (c jsonConn) closeSession(ctx context.Context, id string) (resp sessiond.CloseResponse, err error) {
	err = c.ec.PostJSON(ctx, "/session/close", sessiond.CloseRequest{ID: id}, &resp)
	return resp, err
}

func (c jsonConn) decimate(ctx context.Context, req sessiond.DecimateRequest) (resp sessiond.DecimateResponse, err error) {
	err = c.ec.PostJSON(ctx, "/session/decimate", req, &resp)
	return resp, err
}

// session is the client side of one served session: its open parameters,
// how many observations it has recorded (which the server must agree
// with), and the synthetic cost surface its measurements come from.
type session struct {
	id   string
	seed uint64
	init int
	n    int
	// optimum is the minimum of the session's cost surface; noise perturbs
	// each measurement.
	optimum []float64
	noise   *sim.RNG
	sugOrd  int
	log     *sessLog
}

// newSession draws a session's parameters from rng.
func newSession(id string, init int, rng *sim.RNG, t *tracer) *session {
	s := &session{id: id, seed: rng.Uint64(), init: init, optimum: domain.Sample(rng), noise: sim.NewRNG(rng.Uint64())}
	s.log = t.log(id, s.seed, init)
	return s
}

// cost is the session's measured cost of configuration p: a quadratic bowl
// around its optimum plus seeded measurement noise.
func (s *session) cost(p []float64) float64 {
	c := 0.0
	for i, v := range p {
		d := v - s.optimum[i]
		c += d * d
	}
	return c + 0.01*s.noise.Norm()
}

func (s *session) record(e logEntry) {
	if s.log != nil {
		s.log.Entries = append(s.log.Entries, e)
	}
}

// caller issues one closed-loop caller's session ops, checking every reply.
type caller struct {
	ctx  context.Context
	conn conn
	rec  *recorder
	t    *tracer
}

func (c *caller) open(s *session) error {
	ctx := withCall(c.ctx, c.t, s.id, "open")
	start := time.Now()
	resp, err := c.conn.open(ctx, sessiond.OpenRequest{ID: s.id, Resources: resources, RMin: rmin, Seed: s.seed, Init: s.init})
	d := time.Since(start)
	if err == nil {
		err = checkCount("open", resp.Observations, s.n)
	}
	c.rec.call("open", d, err)
	if err == nil {
		c.rec.opens++
		if resp.Restored {
			c.rec.restored++
		}
	}
	return err
}

func (c *caller) suggest(s *session) ([]float64, error) {
	ctx := withCall(c.ctx, c.t, s.id, "suggest")
	start := time.Now()
	resp, err := c.conn.suggest(ctx, s.id)
	if c.evicted(s, err) {
		resp, err = c.conn.suggest(ctx, s.id)
	}
	d := time.Since(start)
	if err == nil {
		err = errors.Join(checkPoint(resp.Point), checkCount("suggest", resp.Observations, s.n))
	}
	c.rec.call("suggest", d, err)
	if err != nil {
		return nil, err
	}
	s.record(logEntry{Suggest: true, Ord: s.sugOrd, Point: resp.Point})
	s.sugOrd++
	return resp.Point, nil
}

func (c *caller) observe(s *session, p []float64) error {
	cost := s.cost(p)
	ctx := withCall(c.ctx, c.t, s.id, "observe")
	start := time.Now()
	resp, err := c.conn.observe(ctx, s.id, s.n, p, cost)
	if c.evicted(s, err) {
		resp, err = c.conn.observe(ctx, s.id, s.n, p, cost)
	}
	d := time.Since(start)
	if err == nil {
		err = checkCount("observe", resp.Observations, s.n+1)
	}
	c.rec.call("observe", d, err)
	if err != nil {
		return err
	}
	s.record(logEntry{Point: p, Cost: cost})
	s.n++
	return nil
}

// evicted handles a 404 the way a MAR client does: the server evicted the
// session under memory pressure (another caller's opens can push it out
// mid-visit), so reopen it, which restores it from the store, and let the
// caller retry once. It reports whether to retry; the reopen is a timed,
// checked open of its own, and the retried op's latency includes it.
func (c *caller) evicted(s *session, err error) bool {
	if code, ok := edge.StatusCode(err); !ok || code != http.StatusNotFound {
		return false
	}
	c.rec.readmits++
	return c.open(s) == nil
}

// iterate is one BO iteration as a MAR client runs it: fetch the next
// configuration, measure it, report the cost.
func (c *caller) iterate(s *session) error {
	p, err := c.suggest(s)
	if err != nil {
		return err
	}
	if err := c.observe(s, p); err != nil {
		return err
	}
	c.rec.iters++
	return nil
}

func (c *caller) closeSession(s *session) error {
	ctx := withCall(c.ctx, c.t, s.id, "close")
	start := time.Now()
	resp, err := c.conn.closeSession(ctx, s.id)
	d := time.Since(start)
	if err == nil && !resp.Closed {
		err = fmt.Errorf("session %s: server had no session to close", s.id)
	}
	c.rec.call("close", d, err)
	return err
}

// runCallers runs body on n callers, each with its own recorder, and
// returns the recorders once every caller has returned.
func runCallers(n int, body func(i int, rec *recorder)) []*recorder {
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, recs[i])
		}(i)
	}
	wg.Wait()
	return recs
}

// shardOf mirrors sessiond's placement: FNV-1a of the id modulo the shard
// count.
func shardOf(id string, shards int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id)) // hash.Hash writes never fail
	return int(h.Sum32() % uint32(shards))
}

// mix derives an independent seed for one named stream of a workload, so
// every input is a pure function of (workload, seed).
func mix(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash.Hash writes never fail
	return sim.NewRNG(seed ^ h.Sum64()).Uint64()
}

// perm is a seeded Fisher–Yates permutation of [0, n).
func perm(rng *sim.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
