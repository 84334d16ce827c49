package sessiond_test

import (
	"context"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/faults"
)

// serverObservations reads a session's server-side database size through
// an idempotent open on a fresh, fault-free client.
func serverObservations(t *testing.T, baseURL, id string, seed uint64) int {
	t.Helper()
	resp, err := newTestClient(t, baseURL, id, seed).Open(context.Background())
	if err != nil {
		t.Fatalf("counting open: %v", err)
	}
	if !resp.Existing {
		t.Fatalf("counting open found no live session %s", id)
	}
	return resp.Observations
}

// TestRetriedObserveAppliedOnce loses the response to an observe the server
// already applied, lets the client retry, and requires the server's GP
// database to hold the observation exactly once. JSON responses are
// truncated or corrupted by the fault transport on every attempt, so the
// client retries until it gives up. The stream row resends the same frame
// by hand: faults.Transport reads whole bodies and cannot cut an endless
// stream, and a resend is what the client's redial does after a
// connection drops between apply and response.
func TestRetriedObserveAppliedOnce(t *testing.T) {
	const seed = 555
	const index = 2 // observations applied cleanly before the faulty one
	cases := []struct {
		name   string
		plan   faults.Plan // response faults on the JSON link
		stream bool
	}{
		{name: "json truncated response", plan: faults.Plan{TruncateRate: 1}},
		{name: "json corrupted response", plan: faults.Plan{CorruptRate: 1}},
		{name: "stream drop after apply", stream: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newStreamService(t)
			ctx := context.Background()
			const id = "retried"
			clean := newTestClient(t, ts.URL, id, seed)
			if _, err := clean.Open(ctx); err != nil {
				t.Fatalf("open: %v", err)
			}
			var point []float64
			for k := 0; k <= index; k++ {
				p, err := clean.Suggest(ctx)
				if err != nil {
					t.Fatalf("suggest %d: %v", k, err)
				}
				point = p
				if k < index {
					if err := clean.ObserveAt(ctx, k, p, testCost(seed, k, p)); err != nil {
						t.Fatalf("observe %d: %v", k, err)
					}
				}
			}
			cost := testCost(seed, index, point)

			retry := clean
			if tc.stream {
				sc, stream, _ := newStreamedClient(t, ts.URL, id, seed)
				resp, err := stream.Observe(ctx, id, index, point, cost)
				if err != nil || resp.Observations != index+1 {
					t.Fatalf("first send = %+v, %v; want %d observations", resp, err, index+1)
				}
				retry = sc
			} else {
				cfg := edge.DefaultClientConfig()
				cfg.Transport = faults.NewTransport(nil, 9, tc.plan)
				cfg.BackoffBase = time.Millisecond
				cfg.BackoffMax = 2 * time.Millisecond
				ec, err := edge.NewClientWithConfig(ts.URL, 4, cfg)
				if err != nil {
					t.Fatalf("edge client: %v", err)
				}
				faulty, err := sessiond.NewClient(ec, id, testResources, testRMin, seed, testInit)
				if err != nil {
					t.Fatalf("session client: %v", err)
				}
				// Every attempt's response is mangled, so the call fails;
				// what matters is what its retries did to the server.
				_ = faulty.ObserveAt(ctx, index, point, cost)
				if ec.Retries() == 0 {
					t.Fatal("the faulty link drew no retries; the case exercises nothing")
				}
			}
			if got := serverObservations(t, ts.URL, id, seed); got != index+1 {
				t.Fatalf("server holds %d observations after the retried observe, want %d", got, index+1)
			}
			// A clean retry of the same index is acknowledged, not appended.
			if err := retry.ObserveAt(ctx, index, point, cost); err != nil {
				t.Fatalf("clean retry: %v", err)
			}
			if got := serverObservations(t, ts.URL, id, seed); got != index+1 {
				t.Fatalf("server holds %d observations after a clean retry, want %d", got, index+1)
			}
		})
	}
}
