package main

import (
	"math"
	"sort"
)

// tailBeyond is the percentile rule's floor: a reported tail percentile
// must leave at least this many samples above it, or it is a single
// outlier wearing a percentile's name.
const tailBeyond = 10

// maxTail caps the tail percentile at p99: with enough samples the rule
// would allow p99.9 and beyond, but every tail metric of the benchmark is
// named and compared as a p99.
const maxTail = 0.99

// summary is one latency distribution reduced to what the benchmark
// reports: the median, the tail percentile chosen by the rule, and the
// sample count both rest on.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailQ  float64 `json:"tail_q"`
	Beyond int     `json:"beyond"`
}

// tailQuantile applies the percentile rule to n samples: the highest
// quantile q <= 0.99 whose nearest-rank position leaves at least
// tailBeyond samples after it. It returns q, that 1-based rank, and how
// many samples lie beyond it; ok is false when n is too small for any such
// percentile (n <= tailBeyond).
func tailQuantile(n int) (q float64, rank, beyond int, ok bool) {
	if n <= tailBeyond {
		return 0, 0, 0, false
	}
	rank = int(math.Ceil(maxTail * float64(n))) // nearest-rank position of p99
	q = maxTail
	if n-rank < tailBeyond {
		rank = n - tailBeyond
		q = float64(rank) / float64(n)
	}
	return q, rank, n - rank, true
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts xs in place and reduces it. With too few samples for the
// rule the tail is the maximum and TailQ is 1, which the report flags.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), P50: quantile(xs, 0.5)}
	if q, rank, beyond, ok := tailQuantile(len(xs)); ok {
		s.TailQ, s.Beyond = q, beyond
		s.Tail = xs[rank-1]
	} else if len(xs) > 0 {
		s.TailQ, s.Tail = 1, xs[len(xs)-1]
	}
	return s
}

// median is the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// mean is the arithmetic mean of xs, zero when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
