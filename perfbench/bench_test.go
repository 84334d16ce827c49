package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_digests.txt from the reference sessions")

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{n: 5, ok: false},
		{n: 10, ok: false},
		{n: 11, q: 1.0 / 11, beyond: 10, ok: true},
		{n: 500, q: 0.98, beyond: 10, ok: true},
		{n: 1000, q: 0.99, beyond: 10, ok: true},
		{n: 1001, q: 0.99, beyond: 10, ok: true},
		{n: 5000, q: 0.99, beyond: 50, ok: true},
	}
	for _, c := range cases {
		q, _, beyond, ok := tailQuantile(c.n)
		if ok != c.ok || beyond != c.beyond || math.Abs(q-c.q) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, %d, %v; want %v, %d, %v", c.n, q, beyond, ok, c.q, c.beyond, c.ok)
		}
	}
}

// TestSummarizeLeavesBeyond checks the rule on real samples: the reported
// tail has exactly Beyond distinct samples above it, at least ten, and the
// sample count is reported.
func TestSummarizeLeavesBeyond(t *testing.T) {
	for _, n := range []int{11, 37, 400, 999, 1000, 1001, 12345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7919)%n] = float64(i) // distinct values in scrambled order
		}
		s := summarize(xs)
		above := 0
		for _, x := range xs {
			if x > s.Tail {
				above++
			}
		}
		if s.N != n || above != s.Beyond || s.Beyond < tailBeyond || s.TailQ > maxTail {
			t.Errorf("n=%d: summary %+v, %d samples above the tail", n, s, above)
		}
		if s.P50 != float64((n+1)/2-1) {
			t.Errorf("n=%d: median %v", n, s.P50)
		}
	}
	if s := summarize([]float64{3, 1, 2}); s.TailQ != 1 || s.Tail != 3 || s.N != 3 {
		t.Errorf("too few samples: %+v, want the maximum flagged as q=1", s)
	}
}

// TestGeneratorsDeterministic checks every workload's input generator is a
// pure function of (workload, seed).
func TestGeneratorsDeterministic(t *testing.T) {
	warm := func(seed uint64) string {
		p := planWarmGP(seed, nil)
		var b strings.Builder
		for i, s := range p.sessions {
			fmt.Fprintf(&b, "%s %d %d %d %v|", s.id, s.seed, s.init, p.history[i], s.optimum)
		}
		fmt.Fprint(&b, p.owner)
		return b.String()
	}
	visits := func(name string, seed uint64) string {
		slots := newSlots(name, seed, 16, nil)
		var b strings.Builder
		for c := 0; c < callers; c++ {
			order := newVisitOrder(name, seed, c, callers, len(slots))
			for k := 0; k < 50; k++ {
				s := slots[order.next()]
				key, repeat := s.nextMesh([]string{"a", "b", "c"})
				fmt.Fprintf(&b, "%s %d %d %v %v|", s.sess.id, s.sess.seed, s.life, key, repeat)
				if k%7 == 0 {
					s.nextGeneration(nil)
				}
			}
		}
		return b.String()
	}
	paper := func(seed uint64) string {
		return fmt.Sprint(planPaper(seed, 0), planPaper(seed, 1), planPaper(seed, 5))
	}
	gens := map[string]func(uint64) string{
		"warm-gp":      warm,
		"churn-stream": func(s uint64) string { return visits("ch", s) },
		"lod-json":     func(s uint64) string { return visits("lod", s) },
		"paper-loop":   paper,
	}
	for name, gen := range gens {
		if gen(defaultSeed) != gen(defaultSeed) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if gen(defaultSeed) == gen(heldOutSeed) {
			t.Errorf("%s: default and held-out seeds give the same inputs", name)
		}
	}
}

// fakeConn answers every op with a fixed, possibly corrupted, reply.
type fakeConn struct {
	point []float64
	count int // observations claimed by every reply
}

func (f fakeConn) open(context.Context, sessiond.OpenRequest) (sessiond.OpenResponse, error) {
	return sessiond.OpenResponse{Observations: f.count}, nil
}

func (f fakeConn) suggest(context.Context, string) (sessiond.SuggestResponse, error) {
	return sessiond.SuggestResponse{Point: f.point, Observations: f.count}, nil
}

func (f fakeConn) observe(context.Context, string, int, []float64, float64) (sessiond.ObserveResponse, error) {
	return sessiond.ObserveResponse{Observations: f.count}, nil
}

func (f fakeConn) closeSession(context.Context, string) (sessiond.CloseResponse, error) {
	return sessiond.CloseResponse{Closed: f.count >= 0}, nil
}

// TestChecksRejectCorruption feeds each correctness check a deliberately
// corrupted result and expects a failure, and the uncorrupted one and
// expects a pass.
func TestChecksRejectCorruption(t *testing.T) {
	good := []float64{0.3, 0.3, 0.4, 0.5}
	corrupt := map[string]func(rec *recorder){
		"point outside domain": func(rec *recorder) {
			c := &caller{ctx: context.Background(), conn: fakeConn{point: []float64{0.3, 0.3, 0.4, 1.5}}, rec: rec}
			_, _ = c.suggest(&session{id: "x"})
		},
		"point of wrong dimension": func(rec *recorder) {
			c := &caller{ctx: context.Background(), conn: fakeConn{point: good[:3]}, rec: rec}
			_, _ = c.suggest(&session{id: "x"})
		},
		"suggest count lost across restore": func(rec *recorder) {
			c := &caller{ctx: context.Background(), conn: fakeConn{point: good, count: 4}, rec: rec}
			_, _ = c.suggest(&session{id: "x", n: 5})
		},
		"observe applied twice": func(rec *recorder) {
			c := &caller{ctx: context.Background(), conn: fakeConn{count: 7}, rec: rec}
			s := newSession("x", 5, sim.NewRNG(1), nil)
			s.n = 5
			_ = c.observe(s, good)
		},
		"restore lost history": func(rec *recorder) {
			c := &caller{ctx: context.Background(), conn: fakeConn{count: 0}, rec: rec}
			_ = c.open(&session{id: "x", n: 12})
		},
		"close of a missing session": func(rec *recorder) {
			c := &caller{ctx: context.Background(), conn: fakeConn{count: -1}, rec: rec}
			_ = c.closeSession(&session{id: "x"})
		},
	}
	for name, run := range corrupt {
		rec := newRecorder()
		run(rec)
		if rec.failed != 1 || rec.attempted != 1 {
			t.Errorf("%s: attempted %d failed %d, want 1 and 1", name, rec.attempted, rec.failed)
		}
	}
	rec := newRecorder()
	c := &caller{ctx: context.Background(), conn: fakeConn{point: good, count: 3}, rec: rec}
	if _, err := c.suggest(&session{id: "x", n: 3}); err != nil || rec.failed != 0 {
		t.Errorf("uncorrupted suggest failed: %v", err)
	}

	srv, err := edge.NewServer(catalog())
	if err != nil {
		t.Fatal(err)
	}
	m, err := srv.Decimate("andy", 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	want := m.TriangleCount()
	if err := checkMesh(m, want, want); err != nil {
		t.Errorf("valid mesh rejected: %v", err)
	}
	if checkMesh(m, want, want+1) == nil || checkMesh(m, want-1, want) == nil {
		t.Error("wrong triangle count accepted")
	}
	broken := m.Clone()
	broken.Triangles[0][0] = len(m.Vertices) + 5
	if checkMesh(broken, want, want) == nil {
		t.Error("mesh with an out-of-range face accepted")
	}

	samples := []core.RewardSample{{TimeMS: 2000, Reward: 0.5}, {TimeMS: 4000, Reward: 0.25, InActivation: true}}
	d := trajectoryDigest(samples)
	samples[1].Reward = math.Nextafter(samples[1].Reward, 1)
	if checkDigest("x", trajectoryDigest(samples), d) == nil {
		t.Error("a one-ulp trajectory change kept its digest")
	}
	if checkDigest("x", d, d) != nil {
		t.Error("identical digest rejected")
	}
	if checkReplay("x", 0, good, append([]float64(nil), good...)) != nil {
		t.Error("identical replay rejected")
	}
	off := append([]float64(nil), good...)
	off[2] = math.Nextafter(off[2], 0)
	if checkReplay("x", 0, good, off) == nil {
		t.Error("a one-ulp replay difference accepted")
	}
}

// TestPaperDigests checks the kept reference digests, or rewrites them
// with -update.
func TestPaperDigests(t *testing.T) {
	kept := parseDigests(keptDigests)
	var b strings.Builder
	b.WriteString("# paper-loop reference sessions (seed 0x5eed, one per scenario): scenario sha256\n")
	for _, ref := range referenceSessions() {
		d, err := runPaperSession(ref, newRecorder(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", ref.Scenario, d)
		if !*update {
			if err := checkDigest(ref.Scenario, d, kept[ref.Scenario]); err != nil {
				t.Error(err)
			}
		}
	}
	if *update {
		if err := os.WriteFile("testdata/paper_digests.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, end-to-end metrics and per-layer metrics, with the
// same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	e2e, _ := endToEnd(&measurement{rec: newRecorder(), setup: []float64{1}, elapsed: 1})
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := make(map[string]string)
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	got := units(spec.EndToEnd)
	if len(got) != len(e2e) || len(endToEndNames) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, program reports %d", len(got), len(e2e))
	}
	for n, m := range e2e {
		if got[n] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", n, got[n], m.Unit)
		}
	}
	got = units(spec.PerLayer)
	if len(got) != len(layerUnits) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, program reports %d", len(got), len(layerUnits))
	}
	for n, u := range layerUnits {
		if got[n] != u {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program %q", n, got[n], u)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// each run is correct and reports every metric. The traced runs include the
// bo reference replay, so served points must reproduce bit for bit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs real servers")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: defaultSeed, out: t.TempDir()}
			base, err := measure(o, w, nil, 300*time.Millisecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			if base.rec.failed != 0 {
				t.Fatalf("untraced run failed: %v", base.rec.notes)
			}
			e2e, _ := endToEnd(base)
			for n, m := range e2e {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", n, m.Value)
				}
			}
			tr := newTracer()
			traced, err := measure(o, w, tr, 300*time.Millisecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			checks := newRecorder()
			layers := layerMetrics(base, traced, tr, checks)
			if traced.rec.failed != 0 || checks.failed != 0 {
				t.Fatalf("traced run failed: %v %v", traced.rec.notes, checks.notes)
			}
			if len(layers) != len(layerUnits) {
				t.Errorf("%d per-layer metrics, want %d", len(layers), len(layerUnits))
			}
			if w.name != "paper-loop" && layers["trace.replayed_suggests"].Value == 0 {
				t.Error("served workload replayed no suggest")
			}
			var zero []string
			for n, m := range layers {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %v", n, m.Value)
				}
				if m.Value == 0 {
					zero = append(zero, n)
				}
			}
			sort.Strings(zero)
			t.Logf("layers not exercised: %v", zero)
		})
	}
}
