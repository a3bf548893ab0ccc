package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {99, 90, 9}, {110, 90, 11}, {20, 50, 10}, {1, 90, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the rule the steadiness check is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{0.9, 1.1, 1.0, 1.05, 0.95, 1.02, 0.98, 1.01, 0.99, 1.0}, 0.9725, 1.0275},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestFinishNeedsSamplesBeyondP90(t *testing.T) {
	r := &result{Attempted: 1}
	r.setP90("warm_ms_p90", make([]float64, 50)) // 5 beyond
	if err := r.finish([]string{"warm_ms_p90"}); err == nil {
		t.Fatal("a p90 with 5 samples beyond it was accepted")
	}
	r.setP90("warm_ms_p90", make([]float64, 100)) // 10 beyond
	if err := r.finish([]string{"warm_ms_p90"}); err != nil {
		t.Fatal(err)
	}
}
