package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. It is always one of the samples. xs need not be sorted;
// an empty xs yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond reports how many of n samples lie above the nearest-rank p-th
// percentile. A run whose p90 metric has fewer than minBeyond samples
// beyond it fails (see result.finish).
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's steadiness check uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4 in 1-based ranks, interpolated.
		pos := float64(j*(n+1)) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// summarize prints an op kind's sample count, quartiles and p90 (with
// the number of samples beyond it) to stderr.
func summarize(kind string, xs []float64, unit string) {
	q1, q3 := quartiles(xs)
	fmt.Fprintf(os.Stderr, "%-5s n=%-5d q1 %.4g  p50 %.4g  q3 %.4g  p90 %.4g (%d beyond) %s\n",
		kind, len(xs), q1, median(xs), q3, percentile(xs, 90), beyond(len(xs), 90), unit)
}

// seconds and millis convert durations for metric values.
func seconds(ds []time.Duration) []float64 { return scaled(ds, float64(time.Second)) }
func millis(ds []time.Duration) []float64  { return scaled(ds, float64(time.Millisecond)) }

func scaled(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
