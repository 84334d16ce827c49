// Command perfbench is the repository's end-to-end benchmark: the served
// edge path (sessiond behind a loopback listener, driven through the real
// edge client stack) at realistic GP history sizes, plus the paper's
// activation loop. See README.md for the workloads, the metrics and how to
// read them.
//
//	perfbench --workload warm-gp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 for a correct
// run, 1 when a correctness check failed, and 2 when the benchmark could
// not run at all.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Seeds: the default one later claims are developed against, and a
// held-out one they are re-checked on.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// setupReps is how many times an untraced run builds its set-up; setup_s
// is the median.
const setupReps = 3

// instance is one set-up workload, ready for its timed part.
type instance interface {
	// run drives the workload's closed loop until deadline and returns
	// every caller's recorder once all of them have stopped.
	run(ctx context.Context, deadline time.Time) []*recorder
	close() error
	// describe reports the workload's server and load configuration.
	describe() map[string]any
}

type workload struct {
	name string
	// setup builds the workload from its seed. t is nil in untraced runs;
	// tmp is a scratch directory inside the output directory.
	setup func(seed uint64, t *tracer, tmp string) (instance, error)
}

var workloads = []workload{
	{"warm-gp", setupWarmGP},
	{"churn-stream", setupChurn},
	{"lod-json", setupLOD},
	{"paper-loop", setupPaper},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "warm-gp", "workload: warm-gp, churn-stream, lod-json or paper-loop")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed part")
	fs.IntVar(&trace, "trace", 0, "1 runs untraced then traced halves and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".perfbench", "directory for result files, spans and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := lookup(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q seconds %d trace %d\n", o.workload, o.seconds, trace)
		return 2
	}
	res, err := bench(o, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measurement is one timed part and what led up to it.
type measurement struct {
	setup      []float64 // seconds per set-up
	elapsed    float64   // seconds of the timed part
	rec        *recorder
	heapLiveMB float64
	allocBytes uint64
	gcCycles   uint32
	describe   map[string]any
}

func (m *measurement) itersPerSec() float64 { return float64(m.rec.iters) / m.elapsed }

// measure sets the workload up reps times (keeping the last), runs its
// timed part for d, and reads memory before tearing it down.
func measure(o options, w workload, t *tracer, d time.Duration, reps int) (m *measurement, err error) {
	m = &measurement{rec: newRecorder()}
	tmp := filepath.Join(o.out, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	defer func() {
		if rerr := os.RemoveAll(tmp); err == nil {
			err = rerr
		}
	}()
	var inst instance
	for r := 0; r < reps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		inst, err = w.setup(o.seed, t, filepath.Join(tmp, fmt.Sprint(r)))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
	}
	m.describe = inst.describe()
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// Calls that overrun the deadline still finish; the context only bounds
	// a wedged run.
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	start := time.Now()
	for _, r := range inst.run(ctx, start.Add(d)) {
		m.rec.merge(r)
	}
	m.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	m.heapLiveMB = float64(live.HeapAlloc-m.rec.sampleBytes()) / 1e6
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	m.gcCycles = after.NumGC - before.NumGC
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s teardown: %w", w.name, err)
	}
	if m.rec.iters == 0 {
		return nil, errors.New("timed part completed no iteration")
	}
	return m, nil
}

// endToEnd reduces an untraced measurement to the end-to-end metrics.
func endToEnd(m *measurement) (map[string]metric, map[string]summary) {
	sums := make(map[string]summary)
	for op, xs := range m.rec.lat {
		sums[op] = summarize(xs)
	}
	return map[string]metric{
		"setup_s":        {median(append([]float64(nil), m.setup...)), "s"},
		"iters_per_s":    {m.itersPerSec(), "1/s"},
		"suggest_p50_ms": {sums["suggest"].P50, "ms"},
		"observe_p50_ms": {sums["observe"].P50, "ms"},
		"heap_live_mb":   {m.heapLiveMB, "MB"},
	}, sums
}

// bench runs one invocation: an untraced measurement, or for --trace 1 an
// untraced half and a traced half (both from a fresh set-up) followed by
// the reference replay. It prints every metric by name and unit, writes
// the result file, and returns the result line.
func bench(o options, w workload, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	meta := collectMeta(o)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	full := time.Duration(o.seconds) * time.Second
	var (
		res   = &result{Metrics: make(map[string]metric)}
		info  = make(map[string]any)
		names []string
		base  *measurement
		err   error
	)
	if !o.trace {
		if base, err = measure(o, w, nil, full, setupReps); err != nil {
			return nil, err
		}
		var sums map[string]summary
		res.Metrics, sums = endToEnd(base)
		for op, s := range sums {
			info["latency."+op] = s
		}
		names = endToEndNames
	} else {
		if base, err = measure(o, w, nil, full/2, 1); err != nil {
			return nil, err
		}
		t := newTracer()
		traced, err := measure(o, w, t, full/2, 1)
		if err != nil {
			return nil, err
		}
		checks := newRecorder()
		res.Metrics = layerMetrics(base, traced, t, checks)
		traced.rec.merge(checks)
		base.rec.merge(traced.rec)
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := t.writeSpans(spans); err != nil {
			return nil, err
		}
		info["spans_file"] = spans
		names = layerNames()
	}
	meta["server"] = base.describe
	res.Attempted, res.Failed = base.rec.attempted, base.rec.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	info["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	info["failures"] = base.rec.notes
	info["setup_samples_s"] = base.setup
	info["readmits"] = base.rec.readmits
	if base.rec.opens > 0 {
		info["restore_frac"] = float64(base.rec.restored) / float64(base.rec.opens)
	}
	if base.rec.decimates > 0 {
		info["mesh_cache_hit_frac"] = float64(base.rec.meshHits) / float64(base.rec.decimates)
	}

	metaLine, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "meta %s\n", metaLine)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, op := range []string{"open", "suggest", "observe", "decimate", "close"} {
		if s, ok := info["latency."+op].(summary); ok {
			fmt.Fprintf(stdout, "latency %-8s p50 %.4g ms, p%.4g %.4g ms (n=%d, %d beyond)\n", op, s.P50, 100*s.TailQ, s.Tail, s.N, s.Beyond)
		}
	}
	fmt.Fprintf(stdout, "failed_frac %.4g (%d of %d)\n", info["failed_frac"], res.Failed, res.Attempted)
	for _, k := range []string{"restore_frac", "mesh_cache_hit_frac", "readmits"} {
		if v, ok := info[k]; ok {
			fmt.Fprintf(stdout, "%s %v\n", k, v)
		}
	}
	for _, n := range base.rec.notes {
		fmt.Fprintf(stdout, "failure: %s\n", n)
	}
	record := map[string]any{"meta": meta, "result": res, "info": info}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return nil, err
	}
	file := filepath.Join(o.out, fmt.Sprintf("result-%s-%d-trace%d.json", o.workload, o.seed, bit(o.trace)))
	if err := os.WriteFile(file, blob, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{"setup_s", "iters_per_s", "suggest_p50_ms", "observe_p50_ms", "heap_live_mb"}

// collectMeta records what a result needs to be compared with another:
// toolchain, parallelism, CPU, commit and inputs.
func collectMeta(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu": cpuModel(), "commit": commit, "seed": o.seed, "held_out_seed": heldOutSeed,
		"workload": o.workload, "seconds": o.seconds, "trace": o.trace, "setup_reps": setupReps,
		"started": time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
