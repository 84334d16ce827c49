package main

import (
	"errors"
	"sort"
	"strconv"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/sim"
)

// sessionOps are the session ops whose per-layer times are reported.
var sessionOps = []string{"open", "suggest", "observe", "close", "decimate"}

// callOps are the client calls whose untraced latency is reported per
// layer because they are not end-to-end metrics of every workload.
var callOps = []string{"open", "suggest", "observe", "decimate"}

// historyBuckets are the GP history sizes bo.next_ms is split by.
var historyBuckets = []int{64, 128, 256, 512}

// layerNames lists the per-layer metrics in report order; layerUnits has
// each one's unit. Every traced run reports all of them; a layer the
// workload does not exercise reads 0.
func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var layerUnits = func() map[string]string {
	u := map[string]string{
		"bo.predict_ns":                "ns",
		"bo.gp_refits":                 "count",
		"bo.gp_incremental_updates":    "count",
		"bo.jitter_restarts":           "count",
		"bo.suggest_wall_ms.mean":      "ms",
		"sessiond.queue_wait_ms.p50":   "ms",
		"sessiond.queue_wait_ms.p99":   "ms",
		"sessiond.batch_size_mean":     "count",
		"sessiond.admission_rejects":   "count",
		"sessiond.queue_high_tide":     "count",
		"sessiond.evictions":           "count",
		"sessiond.snapshot_saves":      "count",
		"sessiond.restore_frac":        "ratio",
		"sessiond.mesh_cache_hit_frac": "ratio",
		"edge.retries":                 "count",
		"edge.attempt_failures":        "count",
		"wire.encode_ns":               "ns",
		"wire.decode_ns":               "ns",
		"wire.bytes_per_frame":         "bytes",
		"wire.frames_per_flush":        "count",
		"snapstore.put_us.p50":         "us",
		"snapstore.put_us.p99":         "us",
		"snapstore.get_us.p50":         "us",
		"snapstore.get_us.p99":         "us",
		"snapstore.put_bytes":          "bytes",
		"snapstore.puts":               "count",
		"snapstore.gets":               "count",
		"mesh.decimate_ms.p50":         "ms",
		"mesh.decimate_ms.p99":         "ms",
		"mesh.decimates":               "count",
		"scenario.build_ms":            "ms",
		"core.step_us.p50":             "us",
		"core.activations":             "count",
		"sim.events_fired":             "count",
		"sim.ns_per_event":             "ns",
		"soc.inferences_completed":     "count",
		"go.alloc_bytes_per_iter":      "bytes",
		"go.gc_cycles":                 "count",
		"trace.overhead_frac":          "ratio",
		"trace.spans":                  "count",
		"trace.spans_dropped":          "count",
		"trace.replayed_suggests":      "count",
	}
	for _, b := range historyBuckets {
		u["bo.next_ms.n_le"+strconv.Itoa(b)] = "ms"
	}
	for _, op := range sessionOps {
		u["sessiond.residence_ms."+op+".p50"] = "ms"
		u["sessiond.residence_ms."+op+".p99"] = "ms"
		u["edge.transport_us."+op] = "us"
	}
	for _, op := range callOps {
		u["edge.call_ms."+op+".p50"] = "ms"
		u["edge.call_ms."+op+".p99"] = "ms"
	}
	return u
}()

// layerMetrics computes every per-layer metric of a traced run. base is
// the untraced half the overhead is measured against; replay checks land
// in checks.
func layerMetrics(base, traced *measurement, t *tracer, checks *recorder) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	put := func(name string, v float64) { out[name] = metric{Value: v, Unit: layerUnits[name]} }
	for name := range layerUnits {
		put(name, 0)
	}
	// bo: the reference replay of every served session. It runs first so
	// the registry snapshot includes its optimizers' counters.
	rep := replay(t, checks)
	snap := t.reg.Snapshot()
	for _, b := range historyBuckets {
		put("bo.next_ms.n_le"+strconv.Itoa(b), median(rep.byBucket[b]))
	}
	put("bo.predict_ns", rep.predictNS)
	put("trace.replayed_suggests", float64(len(rep.nextMS)))
	put("bo.gp_refits", float64(snap.Counters["bo.gp_refits"]))
	put("bo.gp_incremental_updates", float64(snap.Counters["bo.gp_incremental_updates"]))
	put("bo.jitter_restarts", float64(snap.Counters["bo.jitter_restarts"]))
	put("bo.suggest_wall_ms.mean", snap.Histograms["bo.suggest_wall_ms"].Mean())

	// sessiond and edge: join client and server spans by request id.
	byLayer := make(map[string][]span)
	server := make(map[string]span)
	for _, s := range t.spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
		if s.Layer == "sessiond" && s.ID != "" {
			server[s.ID] = s
		}
	}
	residence := make(map[string][]float64)
	transport := make(map[string][]float64)
	var queueWait []float64
	for _, c := range byLayer["edge"] {
		s, ok := server[c.ID]
		if !ok {
			continue
		}
		transport[c.Name] = append(transport[c.Name], float64((c.End-c.Start)-(s.End-s.Start))/1e3)
		if c.Name == "suggest" {
			if next, ok := rep.nextMS[callKey{c.Session, "suggest", c.Ord}]; ok {
				queueWait = append(queueWait, max(0, s.ms()-next))
			}
		}
	}
	for _, s := range byLayer["sessiond"] {
		residence[s.Name] = append(residence[s.Name], s.ms())
	}
	for _, op := range sessionOps {
		r := summarize(residence[op])
		put("sessiond.residence_ms."+op+".p50", r.P50)
		put("sessiond.residence_ms."+op+".p99", r.Tail)
		put("edge.transport_us."+op, median(transport[op]))
	}
	qw := summarize(queueWait)
	put("sessiond.queue_wait_ms.p50", qw.P50)
	put("sessiond.queue_wait_ms.p99", qw.Tail)
	put("sessiond.batch_size_mean", snap.Histograms["sessiond.batch_size"].Mean())
	put("sessiond.admission_rejects", float64(snap.Counters["sessiond.admission_rejects"]))
	put("sessiond.queue_high_tide", snap.Gauges["sessiond.queue_high_tide"])
	put("sessiond.evictions", float64(snap.Counters["sessiond.evictions"]))
	put("sessiond.snapshot_saves", float64(snap.Counters["sessiond.snapshot_saves"]))
	if traced.rec.opens > 0 {
		put("sessiond.restore_frac", float64(traced.rec.restored)/float64(traced.rec.opens))
	}
	if traced.rec.decimates > 0 {
		put("sessiond.mesh_cache_hit_frac", float64(traced.rec.meshHits)/float64(traced.rec.decimates))
	}
	put("edge.retries", float64(snap.Counters["edge.client.retries"]))
	put("edge.attempt_failures", float64(snap.Counters["edge.client.attempt_failures"]))
	for _, op := range callOps {
		s := summarize(append([]float64(nil), base.rec.lat[op]...))
		put("edge.call_ms."+op+".p50", s.P50)
		put("edge.call_ms."+op+".p99", s.Tail)
	}

	// wire: the codec over the frames the stream actually carried.
	enc, dec := wireTimings(t.frames)
	put("wire.encode_ns", enc)
	put("wire.decode_ns", dec)
	if n := t.frameCount.Load(); n > 0 {
		put("wire.bytes_per_frame", float64(t.frameBytes.Load())/float64(n))
	}
	if f := t.flushes.Load(); f > 0 {
		put("wire.frames_per_flush", float64(t.outFrames.Load())/float64(f))
	}

	// snapstore and mesh: the decorators' spans.
	var puts, gets, putBytes, decimates []float64
	for _, s := range byLayer["snapstore"] {
		us := float64(s.End-s.Start) / 1e3
		if s.Name == "put" {
			puts = append(puts, us)
			putBytes = append(putBytes, float64(s.Bytes))
		} else {
			gets = append(gets, us)
		}
	}
	p, g := summarize(puts), summarize(gets)
	put("snapstore.put_us.p50", p.P50)
	put("snapstore.put_us.p99", p.Tail)
	put("snapstore.get_us.p50", g.P50)
	put("snapstore.get_us.p99", g.Tail)
	put("snapstore.put_bytes", mean(putBytes))
	put("snapstore.puts", float64(p.N))
	put("snapstore.gets", float64(g.N))
	for _, s := range byLayer["mesh"] {
		decimates = append(decimates, s.ms())
	}
	d := summarize(decimates)
	put("mesh.decimate_ms.p50", d.P50)
	put("mesh.decimate_ms.p99", d.Tail)
	put("mesh.decimates", float64(d.N))

	// scenario, core, soc and sim: the paper loop's spans and counters.
	var builds, steps []float64
	var stepNS, nextNS int64
	for _, s := range byLayer["scenario"] {
		builds = append(builds, s.ms())
	}
	for _, s := range byLayer["core"] {
		steps = append(steps, float64(s.End-s.Start)/1e3)
		stepNS += s.End - s.Start
	}
	for _, s := range byLayer["bo"] {
		nextNS += s.End - s.Start
	}
	if len(t.logs) == 0 {
		// No served session to replay: paper-loop's own Next spans give the
		// bo numbers (all past init, n <= 20).
		for _, s := range byLayer["bo"] {
			rep.add(s.N, s.ms())
		}
		for _, b := range historyBuckets {
			put("bo.next_ms.n_le"+strconv.Itoa(b), median(rep.byBucket[b]))
		}
	}
	put("scenario.build_ms", median(builds))
	put("core.step_us.p50", median(steps))
	put("core.activations", float64(snap.Counters["core.activations"]))
	fired := snap.Counters["sim.events_fired"]
	put("sim.events_fired", float64(fired))
	if fired > 0 {
		put("sim.ns_per_event", float64(stepNS-nextNS)/float64(fired))
	}
	put("soc.inferences_completed", float64(snap.Counters["soc.inferences_completed"]))

	// runtime, from the untraced half so tracing's own garbage is not in it.
	put("go.alloc_bytes_per_iter", float64(base.allocBytes)/float64(base.rec.iters))
	put("go.gc_cycles", float64(base.gcCycles))
	put("trace.overhead_frac", 1-traced.itersPerSec()/base.itersPerSec())
	put("trace.spans", float64(len(t.spans)))
	put("trace.spans_dropped", float64(t.dropped))
	return out
}

// replayResult is the bo reference replay's output.
type replayResult struct {
	// nextMS is each replayed suggest's Next self time, by session and
	// suggest ordinal.
	nextMS map[callKey]float64
	// byBucket holds post-init Next self times by history-size bucket.
	byBucket  map[int][]float64
	predictNS float64
}

// add files one post-init Next at history size n that took ms.
func (rep *replayResult) add(n int, ms float64) {
	for _, b := range historyBuckets {
		if n <= b {
			rep.byBucket[b] = append(rep.byBucket[b], ms)
			break
		}
	}
}

// replay rebuilds every served session's optimizer through
// policies.New("") from its seed, init and op log, times each Next, and
// checks that it reproduces the served point bit for bit. The replay
// optimizers report to the tracer's registry.
func replay(t *tracer, checks *recorder) *replayResult {
	rep := &replayResult{nextMS: make(map[callKey]float64), byBucket: make(map[int][]float64)}
	ids := make([]string, 0, len(t.logs))
	for id := range t.logs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sizes []int
	var longest *sessLog
	for _, id := range ids {
		l := t.logs[id]
		cfg := bo.DefaultConfig()
		cfg.InitSamples = l.Init
		pol, err := policies.New("", domain, cfg, sim.NewRNG(l.Seed))
		if err != nil {
			checks.check(err)
			continue
		}
		if o, ok := pol.(*bo.Optimizer); ok {
			o.SetObserver(t.reg)
		}
		if longest == nil || len(l.Entries) > len(longest.Entries) {
			longest = l
		}
		for _, e := range l.Entries {
			if !e.Suggest {
				if err := pol.Observe(e.Point, e.Cost); err != nil {
					checks.check(err)
				}
				continue
			}
			n := pol.Observations()
			start := time.Now()
			p, err := pol.Next()
			d := time.Since(start)
			checks.check(errors.Join(err, checkReplay(l.ID, e.Ord, e.Point, p)))
			ms := float64(d) / 1e6
			rep.nextMS[callKey{l.ID, "suggest", e.Ord}] = ms
			if n < l.Init {
				continue
			}
			sizes = append(sizes, n)
			rep.add(n, ms)
		}
	}
	if len(sizes) > 0 && longest != nil {
		sort.Ints(sizes)
		rep.predictNS = predictTiming(longest, sizes[len(sizes)/2])
	}
	return rep
}

// predictTiming times GP.PredictInto on a GP fitted, as the optimizer fits
// it, to the first n observations of a session, over a seeded candidate
// pool; it returns ns per prediction.
func predictTiming(l *sessLog, n int) float64 {
	var xs [][]float64
	var ys []float64
	for _, e := range l.Entries {
		if !e.Suggest && len(xs) < n {
			xs = append(xs, e.Point)
			ys = append(ys, e.Cost)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	cfg := bo.DefaultConfig()
	gp, err := bo.NewGP(bo.Matern52{LengthScale: cfg.LengthScale, SignalVar: 1}, cfg.NoiseVar)
	if err != nil || gp.Fit(xs, ys) != nil {
		return 0
	}
	rng := sim.NewRNG(1)
	cands := make([][]float64, cfg.Candidates)
	for i := range cands {
		cands[i] = domain.Sample(rng)
	}
	var scratch bo.PredictScratch
	calls := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, c := range cands {
			gp.PredictInto(c, &scratch)
		}
		calls += len(cands)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// wireTimings times wire.DecodeFrame and wire.AppendFrame over captured
// frames (length prefix included); it returns ns per frame for each.
func wireTimings(frames [][]byte) (encodeNS, decodeNS float64) {
	if len(frames) == 0 {
		return 0, 0
	}
	decoded := make([]wire.Frame, len(frames))
	for i, raw := range frames {
		var f wire.Frame
		if wire.DecodeFrame(raw[4:], &f) == nil {
			decoded[i].CopyFrom(&f)
		}
	}
	const budget = 20 * time.Millisecond
	var f wire.Frame
	calls := 0
	start := time.Now()
	for time.Since(start) < budget {
		for _, raw := range frames {
			_ = wire.DecodeFrame(raw[4:], &f) // every frame decoded once above
		}
		calls += len(frames)
	}
	decodeNS = float64(time.Since(start).Nanoseconds()) / float64(calls)
	buf := make([]byte, 0, wire.MaxFrameBytes+4)
	calls = 0
	start = time.Now()
	for time.Since(start) < budget {
		for i := range decoded {
			buf, _ = wire.AppendFrame(buf[:0], &decoded[i])
		}
		calls += len(decoded)
	}
	encodeNS = float64(time.Since(start).Nanoseconds()) / float64(calls)
	return encodeNS, decodeNS
}
