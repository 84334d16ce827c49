// Edgeoffload: the distributed path of the paper's Figure 3 and §VI. A
// local edge server runs the virtual-object decimation algorithm and — per
// §VI's overhead discussion — the Bayesian optimization step itself, in a
// server-side session that keeps the client's optimizer alive between
// calls; the MAR client downloads decimated meshes through an LRU cache,
// fits the Eq. 1 quality model on-device, and drives a remote BO loop whose
// per-iteration payload is a few dozen bytes.
//
// This example exercises the wire protocol end to end on a loopback
// listener — including what happens when the link misbehaves: a fault
// injector degrades the connection mid-run, the client rides it out with
// retries, and a sustained outage trips the circuit breaker, which re-closes
// once the link heals. Run cmd/hboedge for a standalone server.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/quality"
	"github.com/mar-hbo/hbo/internal/render"
	"github.com/mar-hbo/hbo/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "edgeoffload: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	// Start the edge server on a loopback port: the decimation routes plus
	// the session service, on one mux as cmd/hboedge mounts them.
	specs := make([]render.ObjectSpec, 0)
	for _, c := range render.SC1() {
		specs = append(specs, c.Spec)
	}
	srv, err := edge.NewServer(specs)
	if err != nil {
		return err
	}
	sessions, err := sessiond.New(sessiond.DefaultConfig(), srv)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	sessions.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer func() {
		_ = httpSrv.Close()
		<-serveErr // wait for the serve goroutine to exit
		sessions.Close()
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("edge server on %s\n\n", base)

	// All client traffic flows through a fault injector — clean for the
	// first three sections, then degraded in section 4.
	inj := faults.NewTransport(nil, 11, faults.Plan{})
	cfg := edge.DefaultClientConfig()
	cfg.Transport = inj
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 10 * time.Millisecond
	cfg.BreakerFailureThreshold = 3
	cfg.BreakerSuccessThreshold = 1
	cfg.BreakerOpenFor = 50 * time.Millisecond
	client, err := edge.NewClientWithConfig(base, 16, cfg)
	if err != nil {
		return err
	}

	// 1. Decimated-mesh downloads with the local cache.
	for _, ratio := range []float64{0.7, 0.4, 0.7, 0.4, 0.2} {
		m, err := client.Decimate("apricot", ratio)
		if err != nil {
			return err
		}
		fmt.Printf("decimate apricot to %.0f%%: %5d triangles\n", ratio*100, m.TriangleCount())
	}
	hits, misses := client.CacheStats()
	fmt.Printf("local decimation cache: %d hits, %d misses\n\n", hits, misses)

	// 2. On-device Eq. 1 parameter fitting from quality-assessment samples.
	truth := quality.Truth{Severity: 0.65, Gamma: 1.5, DistExp: 1.1}
	rng := sim.NewRNG(5)
	samples := quality.CollectSamples(truth,
		[]float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}, []float64{0.5, 1, 2, 4}, rng, 0.04)
	params, err := quality.Fit(samples)
	if err != nil {
		return err
	}
	fmt.Printf("fitted Eq.1 params: a=%.3f b=%.3f c=%.3f d=%.3f\n", params.A, params.B, params.C, params.D)
	fmt.Printf("predicted error at R=0.5, D=1.5m: %.3f\n\n", params.Error(0.5, 1.5))

	// 3. Remote Bayesian optimization: the server keeps this client's
	// optimizer in a session (its first 5 suggestions are the random init
	// samples); the device uploads each (point, cost) observation and
	// downloads the next configuration to test. Here the black box is a
	// synthetic stand-in for the measured cost.
	cost := func(p []float64) float64 {
		dx := p[3] - 0.72
		return (1-p[2])*0.8 + 3*dx*dx
	}
	remote, err := sessiond.NewClient(client, "edgeoffload", 3, 0.1, 42, 5)
	if err != nil {
		return err
	}
	if _, err := remote.Open(ctx); err != nil {
		return err
	}
	const iterations = 15
	var best []float64
	bestCost := 0.0
	for i := 0; i < iterations; i++ {
		point, err := remote.Suggest(ctx)
		if err != nil {
			return err
		}
		c := cost(point)
		// The index makes the upload exactly-once under the client's retries.
		if err := remote.ObserveAt(ctx, i, point, c); err != nil {
			return err
		}
		if best == nil || c < bestCost {
			best, bestCost = point, c
		}
	}
	if err := remote.CloseSession(ctx); err != nil {
		return err
	}
	fmt.Printf("remote BO after %d iterations: best cost %.3f at ratio %.2f (target 0.72)\n\n",
		iterations, bestCost, best[3])

	// 4. Fault tolerance. First a lossy-but-alive link: half the requests
	// drop, and the client's retry/backoff loop absorbs them.
	inj.SetPlan(faults.Plan{DropRate: 0.5})
	for _, ratio := range []float64{0.35, 0.55, 0.85} {
		if _, err := client.Decimate("apricot", ratio); err != nil {
			return fmt.Errorf("lossy link: %w", err)
		}
	}
	fmt.Printf("lossy link (50%% drops): 3 downloads OK after %d retries\n", client.Retries())

	// Then a hard outage: every request 503s. After three consecutive
	// failures the breaker opens and further calls fail fast without
	// touching the network.
	inj.SetPlan(faults.Plan{ServerErrorRate: 1})
	for i := 0; i < 4; i++ {
		// Fresh ratios each call, so the LRU cache cannot answer locally.
		_, err := client.Decimate("apricot", 0.25+float64(i)*0.02)
		st := client.BreakerStats()
		switch {
		case errors.Is(err, edge.ErrUnavailable):
			fmt.Printf("outage call %d: fast-fail, breaker %s (%d short-circuits)\n", i+1, st.State, st.ShortCircuits)
		case err != nil:
			fmt.Printf("outage call %d: %v (breaker %s)\n", i+1, err, st.State)
		default:
			fmt.Printf("outage call %d: unexpectedly succeeded\n", i+1)
		}
	}

	// Link heals: once the open window lapses, a half-open probe succeeds
	// and the breaker re-closes — the edge is re-adopted transparently.
	inj.SetPlan(faults.Plan{})
	time.Sleep(cfg.BreakerOpenFor + 10*time.Millisecond)
	m, err := client.Decimate("apricot", 0.6)
	if err != nil {
		return fmt.Errorf("post-recovery download: %w", err)
	}
	st := client.BreakerStats()
	fmt.Printf("link healed: %d triangles downloaded, breaker %s after %d opens\n",
		m.TriangleCount(), st.State, st.Opens)
	fs := inj.Stats()
	fmt.Printf("injector totals: %d requests (%d passed, %d dropped, %d synthesized 5xx)\n",
		fs.Requests, fs.Passed, fs.Drops, fs.Synth5xx)
	return nil
}
