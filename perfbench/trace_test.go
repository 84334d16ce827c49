package main

import (
	"context"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
	"github.com/mar-hbo/hbo/internal/sim"
)

// TestSuggestOrdAfterReadmit evicts a session between two of its
// iterations, so its next suggest is answered 404 and the caller reopens
// the session and retries. The failed attempt must get no ordinal, and
// every successful suggest must join the reference replay entry of the
// same ordinal, on both transports.
func TestSuggestOrdAfterReadmit(t *testing.T) {
	for _, transport := range []string{"stream", "json"} {
		t.Run(transport, func(t *testing.T) {
			tr := newTracer()
			cfg := sessiond.Config{Shards: 1, SessionsPerShard: 1, QueueBound: 8, RetryAfterSec: 1,
				MaxBatch: 4, MeshCacheCap: meshCacheCap, Store: snapstore.NewMemStore()}
			srv, err := startServer(cfg, nil, tr)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := newClient(srv.base, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			var cn conn = jsonConn{cl.ec}
			var sc *sessiond.StreamClient
			if transport == "stream" {
				if sc, err = sessiond.NewStreamClient(cl.ec); err != nil {
					t.Fatal(err)
				}
				cn = streamConn{sc}
			}
			defer func() {
				if sc != nil {
					_ = sc.Close()
				}
				if err := srv.close(); err != nil {
					t.Error(err)
				}
				cl.close()
			}()

			rec := newRecorder()
			c := &caller{ctx: context.Background(), conn: cn, rec: rec, t: tr}
			rng := sim.NewRNG(7)
			x, y := newSession("x", 2, rng, tr), newSession("y", 2, rng, tr)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(c.open(x))
			must(c.iterate(x))
			must(c.iterate(x))
			must(c.iterate(x)) // past init: the GP serves from here on
			must(c.open(y))    // capacity 1: evicts x to the store
			must(c.iterate(x)) // 404, readmit, retry
			must(c.iterate(x))
			if rec.readmits != 1 || rec.failed != 0 {
				t.Fatalf("readmits %d, failed %d %v; want one readmit and no failure", rec.readmits, rec.failed, rec.notes)
			}

			checks := newRecorder()
			rep := replay(tr, checks)
			if checks.failed != 0 {
				t.Fatalf("replay: %v", checks.notes)
			}
			var ords []int
			for _, s := range tr.spans {
				if s.Layer != "edge" || s.Name != "suggest" || s.Session != "x" {
					continue
				}
				ords = append(ords, s.Ord)
				if _, ok := rep.nextMS[callKey{"x", "suggest", s.Ord}]; s.Ord != noOrd && !ok {
					t.Errorf("suggest ord %d joins no replay entry", s.Ord)
				}
			}
			want := []int{0, 1, 2, noOrd, 3, 4}
			if len(ords) != len(want) {
				t.Fatalf("suggest ordinals %v, want %v", ords, want)
			}
			for i := range want {
				if ords[i] != want[i] {
					t.Fatalf("suggest ordinals %v, want %v", ords, want)
				}
			}
		})
	}
}
