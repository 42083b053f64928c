package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	// Population sd is 2; sample sd = sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(a.StdDev()-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", a.StdDev(), want)
	}
	a.Reset()
	if a.N() != 0 || a.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestAccumulatorMatchesNaiveComputation(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		var sum float64
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				ok = false
				break
			}
			a.Add(x)
			sum += x
		}
		if !ok || len(xs) == 0 {
			return true
		}
		mean := sum / float64(len(xs))
		return math.Abs(a.Mean()-mean) < 1e-6*(1+math.Abs(mean))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(10, 10)
	for v := int64(0); v < 100; v++ {
		h.Add(v)
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if p := h.Percentile(50); p < 40 || p > 60 {
		t.Fatalf("P50 = %d", p)
	}
	if p := h.Percentile(99); p < 90 {
		t.Fatalf("P99 = %d", p)
	}
	// Overflow samples report the observed max.
	h.Add(5000)
	if p := h.Percentile(100); p != 5000 {
		t.Fatalf("P100 with overflow = %d", p)
	}
	h.Reset()
	if h.N() != 0 || h.Percentile(50) != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramClampsNegatives(t *testing.T) {
	h := NewHistogram(4, 4)
	h.Add(-17)
	if h.Mean() != 0 {
		t.Fatalf("negative sample not clamped: mean %v", h.Mean())
	}
}

func TestHistogramOverflowAndSummary(t *testing.T) {
	h := NewHistogram(10, 4)
	for _, v := range []int64{5, 15, 25, 35, 45, 1000} {
		h.Add(v)
	}
	if h.over != 2 {
		t.Fatalf("Overflow = %d, want 2 (40+ falls past the last bucket)", h.over)
	}
	s := h.Summary()
	for _, want := range []string{"n=6", "p50=", "p95=", "p99=", "max=1000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary %q missing %q", s, want)
		}
	}
	h.Reset()
	if h.over != 0 {
		t.Fatalf("Overflow survived Reset: %d", h.over)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 4)
	for _, v := range []int64{5, 15, 25, 35, 45, 1000} {
		h.Add(v)
	}
	width, counts, overflow := h.Buckets()
	if width != 10 || overflow != 2 {
		t.Fatalf("Buckets width=%d overflow=%d, want 10 and 2", width, overflow)
	}
	want := []int64{1, 1, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// histogram an exporter is reading.
	counts[0] = 99
	if _, again, _ := h.Buckets(); again[0] != 1 {
		t.Fatal("Buckets exposed internal storage")
	}
}
