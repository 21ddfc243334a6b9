package main

import (
	"math"
	"testing"
)

func TestSummarizeHandComputed(t *testing.T) {
	// 1..10: the median falls halfway between the 5th and 6th samples.
	s := summarize([]float64{10, 3, 1, 7, 2, 9, 4, 8, 6, 5})
	if s.N != 10 || s.P50 != 5.5 {
		t.Fatalf("got %+v, want N=10 P50=5.5", s)
	}
	if s.HasP99 {
		t.Fatalf("P99 reported from %d samples", s.N)
	}

	// 1..1000: rank 0.99·999 = 989.01 (0-based) lies between the values
	// 990 and 991, so P99 = 990.01; the median is 500.5.
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1)
	}
	s = summarize(v)
	if !s.HasP99 || s.P50 != 500.5 || math.Abs(s.P99-990.01) > 1e-9 {
		t.Fatalf("got %+v, want P50=500.5 P99=990.01", s)
	}

	// One sample short of the threshold: no tail.
	if s := summarize(v[:999]); s.HasP99 {
		t.Fatalf("P99 reported from %d samples", s.N)
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("quantile of no samples should be NaN")
	}
	if q := quantileSorted([]float64{4}, 0.99); q != 4 {
		t.Fatalf("single sample quantile = %v, want 4", q)
	}
	in := []float64{3, 1, 2}
	if m := median(in); m != 2 || in[0] != 3 {
		t.Fatalf("median = %v (input now %v), want 2 with input untouched", m, in)
	}
}
