package sessiond

import (
	"errors"
	"math"
	"net/http"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
)

// evictionService is one shard with room for one session over a MemStore,
// so opening a second session deterministically evicts (and snapshots)
// the first.
func evictionService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.SessionsPerShard = 1
	cfg.Store = snapstore.NewMemStore()
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func mustOpen(t *testing.T, svc *Service, id string) OpenResponse {
	t.Helper()
	p := testParams(7)
	resp, st := svc.opOpen(OpenRequest{ID: id, Resources: p.resources, RMin: p.rmin, Seed: p.seed, Init: p.init})
	if !st.ok() {
		t.Fatalf("open %s: %d %s", id, st.code, st.msg)
	}
	return resp
}

// TestObserveOnEvictedSession replays the race where an observe finds its
// session, an open on the same shard evicts and snapshots it, and only
// then does the observe take the session lock. The observe must be
// refused: acknowledging it would tell the client the server holds an
// observation that the snapshot, and so the readmitted session, never saw.
func TestObserveOnEvictedSession(t *testing.T) {
	svc := evictionService(t)
	mustOpen(t, svc, "x")
	stale := svc.find([]byte("x"), true)
	res := suggestOne(stale)
	if res.err != nil {
		t.Fatalf("suggest: %v", res.err)
	}
	if got := mustOpen(t, svc, "y"); got.Evicted != "x" {
		t.Fatalf("open y evicted %q, want x", got.Evicted)
	}
	if n, _, _, err := stale.observe(0, res.point, driveCost(res.point)); !errors.Is(err, errGone) {
		t.Fatalf("observe on the evicted session = (%d, %v), want errGone", n, err)
	}
	// The client's readmit: reopen restores the snapshot, which holds no
	// observation, and the replay lands the observation exactly once.
	re := mustOpen(t, svc, "x")
	if !re.Restored || re.Observations != 0 {
		t.Fatalf("reopened x = %+v, want restored with 0 observations", re)
	}
	resp, st := svc.opObserve([]byte("x"), 0, res.point, driveCost(res.point))
	if !st.ok() || resp.Observations != 1 {
		t.Fatalf("replayed observe = %+v, %+v; want 1 observation", resp, st)
	}
}

// TestSuggestOnEvictedSession is the suggest side of the same race: a
// suggest admitted against a session that is evicted before the worker
// serves it must answer 404, not advance an RNG the snapshot no longer
// tracks. Otherwise the readmitted session re-serves a point the client
// already has.
func TestSuggestOnEvictedSession(t *testing.T) {
	svc := evictionService(t)
	mustOpen(t, svc, "x")
	stale := svc.find([]byte("x"), false)
	mustOpen(t, svc, "y")
	job := &suggestJob{sess: stale, reply: make(chan suggestResult, 1)}
	if !svc.enqueueSuggest(stale, job) {
		t.Fatal("stale suggest not admitted")
	}
	if _, st := svc.finishSuggest(job, <-job.reply); st.code != http.StatusNotFound {
		t.Fatalf("suggest on the evicted session = %+v, want 404", st)
	}
	mustOpen(t, svc, "x")
	job = &suggestJob{reply: make(chan suggestResult, 1)}
	if st := svc.opSuggest([]byte("x"), job); !st.ok() {
		t.Fatalf("suggest after readmit: %+v", st)
	}
	got, st := svc.finishSuggest(job, <-job.reply)
	if !st.ok() {
		t.Fatalf("suggest after readmit: %+v", st)
	}
	want, err := mirrorOptimizer(t, testParams(7), 0).Next()
	if err != nil {
		t.Fatalf("mirror Next: %v", err)
	}
	for d := range want {
		if math.Float64bits(got.Point[d]) != math.Float64bits(want[d]) {
			t.Fatalf("dim %d: readmitted session's first suggest %v, want the seed's first point %v", d, got.Point, want)
		}
	}
}
