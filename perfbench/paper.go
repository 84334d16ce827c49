package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"github.com/mar-hbo/hbo/internal/bo"
	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/core"
	"github.com/mar-hbo/hbo/internal/scenario"
	"github.com/mar-hbo/hbo/internal/sim"
)

// paper-loop session shape: 120 s of virtual time under the paper's
// event-based activation policy. At 60 s the user walks to a new spot and
// the app re-anchors its scene there: a fresh monitor, which the policy
// treats as a first placement and so activates again. (A plain distance
// change does not re-trigger reliably: with SC2's light objects the reward
// often stays inside the drift thresholds.)
const (
	paperDurationMS   = 120_000
	paperMoveAtMS     = 60_000
	paperMoveDistance = 4.0
	// paperReferenceSeed roots the reference sessions whose digests are
	// kept in testdata/paper_digests.txt; set-up replays one per scenario.
	paperReferenceSeed = 0x5eed
	// paperGoroutines runs one session at a time. With two, one per CPU
	// of the reference machine, they contended with each other and with
	// the garbage collector: over 4 interleaved 15 s runs the suggest
	// median was 0.84–0.92 ms with two against 0.73–0.75 ms with one.
	paperGoroutines = 1
)

//go:embed testdata/paper_digests.txt
var keptDigests string

// paperSession is one paper-loop session's input: its scenario and the
// seeds of its scenario build, BO backend, and the activation monitors
// before and after the re-anchoring move.
type paperSession struct {
	Scenario string
	Build    uint64
	BO       uint64
	Monitor  uint64
	Anchor   uint64
}

// planPaper returns session i of the seed's stream. Sessions cycle through
// the four SC*-CF* scenarios in paper order so every run weighs them alike.
func planPaper(seed uint64, i int) paperSession {
	specs := scenario.All()
	rng := sim.NewRNG(mix(seed, fmt.Sprintf("paper/%d", i)))
	return paperSession{Scenario: specs[i%len(specs)].Name, Build: rng.Uint64(), BO: rng.Uint64(), Monitor: rng.Uint64(), Anchor: rng.Uint64()}
}

// inprocBO is the paper loop's BO step behind core's remote-BO seam
// (core.BOBackend), served in-process by the same gp-ei policy sessiond
// runs: one persistent optimizer per activation, fed the tail of the
// history it has not seen. This is where paper-loop times its suggests and
// observes. Init samples stay with core's on-device optimizer.
type inprocBO struct {
	init int
	pol  bo.Policy
	rec  *recorder
	t    *tracer
	// suggested is when the activation's last suggestion was returned;
	// zero before its first.
	suggested time.Time
}

// BONextPoint times the two halves of a BO iteration. Its suggest is the
// optimizer's Next. Its observe is the rest of the iteration on the
// device: from the previous suggestion's return until this call has
// recorded that suggestion's measured cost, which is the simulated
// enforce-settle-measure period (core, soc, sim) plus Observe. (Observe
// alone is an append of about 0.2 µs, below what a wall clock times
// steadily.)
func (b *inprocBO) BONextPoint(resources int, rmin float64, seed uint64, points [][]float64, costs []float64) ([]float64, error) {
	if b.pol == nil || b.pol.Observations() > len(points) {
		// A shorter history than the optimizer holds is a new activation.
		cfg := bo.DefaultConfig()
		cfg.InitSamples = b.init
		pol, err := policies.New("", bo.Domain{N: resources, RMin: rmin}, cfg, sim.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		if o, ok := pol.(*bo.Optimizer); ok && b.t != nil {
			o.SetObserver(b.t.reg)
		}
		b.pol, b.suggested = pol, time.Time{}
	}
	for i := b.pol.Observations(); i < len(points); i++ {
		if err := b.pol.Observe(points[i], costs[i]); err != nil {
			b.rec.call("observe", 0, err)
			return nil, err
		}
	}
	if !b.suggested.IsZero() {
		b.rec.call("observe", time.Since(b.suggested), nil)
	}
	var p []float64
	var err error
	start := time.Now()
	b.t.time("bo", "next", b.pol.Observations(), func() { p, err = b.pol.Next() })
	b.rec.call("suggest", time.Since(start), err)
	b.suggested = time.Now()
	return p, err
}

// runPaperSession builds the session's scenario, runs it for 120 virtual
// seconds with the re-anchoring move, checks the outcome and returns its
// trajectory digest. Iterations are added to rec.
func runPaperSession(ps paperSession, rec *recorder, t *tracer) (string, error) {
	spec, err := scenario.ByName(ps.Scenario)
	if err != nil {
		return "", err
	}
	var built *scenario.Built
	t.time("scenario", "build", 0, func() { built, err = spec.Build(ps.Build) })
	if err != nil {
		return "", err
	}
	if reg := t.registry(); reg != nil {
		built.Engine.SetObserver(reg)
		built.System.SetObserver(reg)
		built.Runtime.SetObserver(reg)
	}
	cfg := core.DefaultConfig()
	built.Runtime.SetBOBackend(&inprocBO{init: cfg.InitSamples, rec: rec, t: t}, ps.BO)
	newSession := func(seed uint64) (*core.Session, error) {
		return core.NewSession(built.Runtime, core.SessionConfig{HBO: cfg, Mode: core.EventBased}, sim.NewRNG(seed))
	}
	sess, err := newSession(ps.Monitor)
	if err != nil {
		return "", err
	}
	phases := []*core.Session{sess}
	for built.System.Now() < paperDurationMS {
		if len(phases) == 1 && built.System.Now() >= paperMoveAtMS {
			for _, o := range built.Scene.Objects() {
				o.Distance = paperMoveDistance
			}
			built.Runtime.SyncRenderLoad()
			if sess, err = newSession(ps.Anchor); err != nil {
				return "", err
			}
			phases = append(phases, sess)
		}
		t.time("core", "step", 0, func() { err = sess.Step() })
		if err != nil {
			return "", err
		}
	}
	var samples []core.RewardSample
	iters := 0
	for i, p := range phases {
		n, err := checkPaperPhase(p, cfg)
		if err != nil {
			return "", fmt.Errorf("%s phase %d: %w", ps.Scenario, i, err)
		}
		iters += n
		samples = append(samples, p.Samples()...)
	}
	if len(phases) != 2 {
		return "", fmt.Errorf("%s: session ended before the move", ps.Scenario)
	}
	rec.iters += int64(iters)
	return trajectoryDigest(samples), nil
}

// checkPaperPhase verifies one phase of a session did what the workload
// promises: at least one activation, each with the full 5+15 iteration
// budget, and finite rewards throughout. It returns the phase's iteration
// count.
func checkPaperPhase(sess *core.Session, cfg core.Config) (int, error) {
	acts := sess.Activations()
	if len(acts) == 0 {
		return 0, fmt.Errorf("no activation")
	}
	iters := 0
	for i, a := range acts {
		if a.Result == nil || len(a.Result.Iterations) != cfg.InitSamples+cfg.Iterations {
			return 0, fmt.Errorf("activation %d did not run the %d+%d budget", i, cfg.InitSamples, cfg.Iterations)
		}
		iters += len(a.Result.Iterations)
	}
	for _, smp := range sess.Samples() {
		if math.IsNaN(smp.Reward) || math.IsInf(smp.Reward, 0) {
			return 0, fmt.Errorf("non-finite reward at %v ms", smp.TimeMS)
		}
	}
	return iters, nil
}

// trajectoryDigest hashes a reward trajectory in loadgen's trajectory line
// format: IEEE-754 bits of time and reward in hex plus the two flags, so a
// drift in the last ulp changes the digest.
func trajectoryDigest(samples []core.RewardSample) string {
	h := sha256.New()
	for _, s := range samples {
		fmt.Fprintf(h, "%016x %016x %d %d\n", math.Float64bits(s.TimeMS), math.Float64bits(s.Reward), bit(s.InActivation), bit(s.Degraded))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parseDigests reads "scenario digest" lines, skipping blanks and # comments.
func parseDigests(text string) map[string]string {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			out[f[0]] = f[1]
		}
	}
	return out
}

// referenceSessions is one session per scenario under paperReferenceSeed.
func referenceSessions() []paperSession {
	refs := make([]paperSession, len(scenario.All()))
	for i := range refs {
		refs[i] = planPaper(paperReferenceSeed, i)
	}
	return refs
}

// paperLoop is the paper-loop workload: whole paper sessions, no network.
type paperLoop struct {
	seed uint64
	t    *tracer
	// setupRec holds the set-up's digest checks, reported with the run.
	setupRec *recorder
}

// setupPaper replays the reference sessions, one per scenario, and checks
// their digests against the kept ones. This also warms the scenario
// builders and the simulator before the timed part.
func setupPaper(seed uint64, t *tracer, _ string) (instance, error) {
	w := &paperLoop{seed: seed, t: t, setupRec: newRecorder()}
	kept := parseDigests(keptDigests)
	refs := referenceSessions()
	digests := make([]string, len(refs))
	recs := runCallers(paperGoroutines, func(i int, rec *recorder) {
		for j := i; j < len(refs); j += paperGoroutines {
			d, err := runPaperSession(refs[j], newRecorder(), nil)
			rec.check(err)
			digests[j] = d
		}
	})
	if err := setupErr(recs); err != nil {
		return nil, err
	}
	for j, ref := range refs {
		w.setupRec.check(checkDigest(ref.Scenario, digests[j], kept[ref.Scenario]))
	}
	return w, nil
}

// run has each caller pull the next session of the seed's stream until the
// deadline.
func (w *paperLoop) run(_ context.Context, deadline time.Time) []*recorder {
	var next atomic.Int64
	recs := runCallers(paperGoroutines, func(_ int, rec *recorder) {
		for time.Now().Before(deadline) {
			ps := planPaper(w.seed, int(next.Add(1)-1))
			rec.attempted++
			if _, err := runPaperSession(ps, rec, w.t); err != nil {
				rec.fail(err)
				return
			}
		}
	})
	return append(recs, w.setupRec)
}

func (w *paperLoop) close() error { return nil }

func (w *paperLoop) describe() map[string]any {
	return map[string]any{
		"network": "none", "goroutines": paperGoroutines, "scenarios": len(scenario.All()),
		"virtual_ms": paperDurationMS, "reanchor_at_ms": paperMoveAtMS, "budget": "5+15, event-based",
		"bo": "gp-ei behind core.BOBackend, in-process",
	}
}
