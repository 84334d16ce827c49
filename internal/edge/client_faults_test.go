package edge

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/faults"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/render"
)

// testClientConfig returns a config with no real sleeping and tight
// timeouts so fault-path tests run instantly.
func testClientConfig() ClientConfig {
	cfg := DefaultClientConfig()
	cfg.Timeout = 2 * time.Second
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	cfg.Sleep = func(time.Duration) {}
	return cfg
}

func newFaultyPair(t *testing.T, plan faults.Plan, seed uint64, mut func(*ClientConfig)) (*Client, *faults.Transport, func()) {
	t.Helper()
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 1, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	tr := faults.NewTransport(nil, seed, plan)
	tr.SetSleep(func(time.Duration) {})
	cfg := testClientConfig()
	cfg.Transport = tr
	if mut != nil {
		mut(&cfg)
	}
	client, err := NewClientWithConfig(ts.URL, 8, cfg)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return client, tr, ts.Close
}

func TestRetryRecoversFromTransientDrops(t *testing.T) {
	// The first two requests drop; the retry loop must ride it out.
	client, tr, closeFn := newFaultyPair(t, faults.Plan{Flaps: []faults.Window{{From: 0, To: 2}}}, 1, nil)
	defer closeFn()
	m, err := client.Decimate("apricot", 0.5)
	if err != nil {
		t.Fatalf("decimate through transient drops: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := client.Retries(); r != 2 {
		t.Fatalf("retries = %d, want 2", r)
	}
	if st := tr.Stats(); st.Drops != 2 || st.Passed != 1 {
		t.Fatalf("injector stats = %+v", st)
	}
}

func TestRetryRecoversFrom5xxBurst(t *testing.T) {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 1, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A two-request 502 burst, then clean.
	rt := &scriptedRT{failures: 2, code: http.StatusBadGateway}
	cfg := testClientConfig()
	cfg.Transport = rt
	client, err := NewClientWithConfig(ts.URL, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Decimate("apricot", 0.5); err != nil {
		t.Fatalf("decimate through 5xx burst: %v", err)
	}
	if client.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", client.Retries())
	}
	st := client.BreakerStats()
	if st.Failures != 2 || st.Successes != 1 || st.State != BreakerClosed {
		t.Fatalf("breaker stats = %+v", st)
	}
}

// scriptedRT fails the first N requests with an HTTP status (0 = drop the
// connection), optionally mangles bodies, then passes through.
type scriptedRT struct {
	mu       sync.Mutex
	seen     int
	failures int
	code     int
	mangle   func([]byte) []byte
}

func (s *scriptedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	n := s.seen
	s.seen++
	s.mu.Unlock()
	if n < s.failures {
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		if s.code == 0 {
			return nil, errors.New("scripted connection failure")
		}
		return &http.Response{
			Status:     http.StatusText(s.code),
			StatusCode: s.code,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{},
			Body:    io.NopCloser(strings.NewReader("scripted failure")),
			Request: req,
		}, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || s.mangle == nil {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(strings.NewReader(string(s.mangle(body))))
	resp.Header.Del("Content-Length")
	resp.ContentLength = -1
	return resp, nil
}

func TestMalformedJSONRetriedThenFails(t *testing.T) {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 800, Shape: render.ShapeSphere, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Every response is truncated mid-document: retries burn out and the
	// call reports a decode failure rather than hanging or panicking.
	rt := &scriptedRT{mangle: func(b []byte) []byte { return b[:len(b)/2] }}
	cfg := testClientConfig()
	cfg.Transport = rt
	cfg.MaxRetries = 2
	client, err := NewClientWithConfig(ts.URL, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Decimate("apricot", 0.5)
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("truncated responses: err = %v", err)
	}
	if rt.seen != 3 {
		t.Fatalf("attempts = %d, want 1 + 2 retries", rt.seen)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"object":"x","ratio":0.5,"triangles":0,"mesh":{"vertices":[],"triangles":[]}}{"sneaky":1}`))
	}))
	defer ts.Close()
	cfg := testClientConfig()
	cfg.MaxRetries = 0
	client, err := NewClientWithConfig(ts.URL, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Decimate("apricot", 0.5)
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing garbage: err = %v", err)
	}
}

func TestOversizeResponseRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"object":"` + strings.Repeat("x", 4096) + `"}`))
	}))
	defer ts.Close()
	cfg := testClientConfig()
	cfg.MaxRetries = 0
	cfg.MaxResponseBytes = 1024
	client, err := NewClientWithConfig(ts.URL, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Decimate("apricot", 0.5)
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize response: err = %v", err)
	}
}

func TestClientErrorsNotRetried(t *testing.T) {
	client, tr, closeFn := newFaultyPair(t, faults.Plan{}, 1, nil)
	defer closeFn()
	_, err := client.Decimate("ghost", 0.5)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown object: err = %v", err)
	}
	if tr.Requests() != 1 {
		t.Fatalf("404 was retried: %d requests", tr.Requests())
	}
}

func TestBreakerOpensAndShortCircuits(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	client, tr, closeFn := newFaultyPair(t, faults.Plan{DropRate: 1}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 1
		cfg.BreakerFailureThreshold = 4
		cfg.Clock = clk.now
	})
	defer closeFn()
	// Two calls × two attempts: four consecutive failures open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := client.Decimate("apricot", 0.5); err == nil {
			t.Fatal("call through dead link succeeded")
		}
	}
	if st := client.BreakerStats(); st.State != BreakerOpen || st.Opens != 1 {
		t.Fatalf("breaker = %+v, want open", st)
	}
	before := tr.Requests()
	_, err := client.Decimate("apricot", 0.5)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("short-circuit error = %v, want ErrUnavailable", err)
	}
	if tr.Requests() != before {
		t.Fatal("short-circuited call still hit the network")
	}
	if client.Available() {
		t.Fatal("Available() true while breaker open")
	}
}

func TestBreakerHalfOpenRecloses(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	// Exactly the first two requests fail; afterwards the link is clean.
	client, _, closeFn := newFaultyPair(t, faults.Plan{Flaps: []faults.Window{{From: 0, To: 2}}}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 0
		cfg.BreakerFailureThreshold = 2
		cfg.BreakerSuccessThreshold = 2
		cfg.Clock = clk.now
	})
	defer closeFn()
	for i := 0; i < 2; i++ {
		if _, err := client.Decimate("apricot", 0.5); err == nil {
			t.Fatal("call through flap succeeded")
		}
	}
	if st := client.BreakerStats(); st.State != BreakerOpen {
		t.Fatalf("breaker = %+v, want open", st)
	}
	// Probes flow once the open window elapses; two successes re-close.
	clk.advance(client.cfg.BreakerOpenFor)
	if !client.Available() {
		t.Fatal("Available() false after open window")
	}
	if _, err := client.Decimate("apricot", 0.4); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if st := client.BreakerStats(); st.State != BreakerHalfOpen {
		t.Fatalf("breaker after 1 probe = %+v, want half-open", st)
	}
	if _, err := client.Decimate("apricot", 0.6); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if st := client.BreakerStats(); st.State != BreakerClosed {
		t.Fatalf("breaker after recovery = %+v, want closed", st)
	}
}

func TestCacheReturnsCopies(t *testing.T) {
	// Mutating a mesh handed out by the client must not corrupt the cache
	// (a scene adjusts geometry in place after ApplyLOD).
	_, client, closeFn := newPair(t, 8)
	defer closeFn()
	first, err := client.Decimate("apricot", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Vertices[0]
	first.Vertices[0].X += 1e6
	first.Triangles[0] = mesh.Triangle{0, 0, 0} // degenerate — would fail Validate
	second, err := client.Decimate("apricot", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := client.CacheStats(); h != 1 {
		t.Fatalf("second fetch missed the cache (hits=%d)", h)
	}
	if second.Vertices[0] != want {
		t.Fatalf("cache entry corrupted by caller mutation: %+v", second.Vertices[0])
	}
	if err := second.Validate(); err != nil {
		t.Fatalf("cached mesh no longer valid: %v", err)
	}
	if &second.Vertices[0] == &first.Vertices[0] {
		t.Fatal("cache hit aliases previously returned mesh")
	}
}

func TestClientConcurrentCallers(t *testing.T) {
	// One client shared by goroutines: cache, counters, and breaker must be
	// race-free (run under -race).
	client, _, closeFn := newFaultyPair(t, faults.Plan{DropRate: 0.2}, 5, func(cfg *ClientConfig) {
		cfg.MaxRetries = 2
		cfg.BreakerFailureThreshold = 50 // keep the circuit closed for the hammer
	})
	defer closeFn()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				ratio := 0.2 + 0.1*float64((w+i)%7)
				_, _ = client.Decimate("apricot", ratio)
			}
		}()
	}
	wg.Wait()
}

func TestDecimateContextCancellation(t *testing.T) {
	client, tr, closeFn := newFaultyPair(t, faults.Plan{DropRate: 1}, 1, func(cfg *ClientConfig) {
		cfg.MaxRetries = 10
	})
	defer closeFn()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := client.DecimateContext(ctx, "apricot", 0.5)
	if err == nil {
		t.Fatal("cancelled context succeeded")
	}
	// The retry loop must stop on cancellation, not burn all 10 retries.
	if tr.Requests() > 2 {
		t.Fatalf("cancelled call made %d requests", tr.Requests())
	}
}
