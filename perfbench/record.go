package main

import (
	"fmt"
	"time"
)

// maxFailureNotes bounds how many failure messages one run keeps.
const maxFailureNotes = 8

// recorder collects one caller's measurements. Callers never share a
// recorder; the runner merges them once every caller has stopped, so the
// hot path takes no lock.
type recorder struct {
	// lat holds each op's client-observed latency in ms, successful calls
	// only (a failed call fails the run instead).
	lat map[string][]float64
	// iters counts completed BO iterations: served suggest→observe pairs,
	// or, on paper-loop, iterations summed over activations.
	iters int64
	// attempted counts client calls plus standalone checks; failed counts
	// those that errored or whose result failed a correctness check.
	attempted int64
	failed    int64
	notes     []string

	opens, restored     int64
	readmits            int64
	decimates, meshHits int64
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]float64)} }

// call records one client call: its latency when err is nil, a failure
// otherwise. err covers both the call itself and the checks on its result.
func (r *recorder) call(op string, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", op, err))
		return
	}
	r.lat[op] = append(r.lat[op], float64(d)/1e6)
}

// check records a correctness check that is not tied to one call.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, err.Error())
	}
}

// sampleBytes is the heap the latency samples occupy, which heap_live_mb
// leaves out: it grows with throughput and is the benchmark's, not the
// program's.
func (r *recorder) sampleBytes() uint64 {
	n := uint64(0)
	for _, xs := range r.lat {
		n += uint64(cap(xs)) * 8
	}
	return n
}

func (r *recorder) merge(o *recorder) {
	for op, xs := range o.lat {
		r.lat[op] = append(r.lat[op], xs...)
	}
	r.iters += o.iters
	r.attempted += o.attempted
	r.failed += o.failed
	for _, n := range o.notes {
		if len(r.notes) < maxFailureNotes {
			r.notes = append(r.notes, n)
		}
	}
	r.opens += o.opens
	r.restored += o.restored
	r.readmits += o.readmits
	r.decimates += o.decimates
	r.meshHits += o.meshHits
}
