package sim

import (
	"fmt"
	"math"
)

// Accumulator collects a running mean/min/max/variance of a scalar series
// without storing samples (Welford's algorithm).
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples recorded.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest sample, or 0 with no samples.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Reset discards all samples.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// String renders a one-line summary.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f",
		a.n, a.Mean(), a.Min(), a.Max(), a.StdDev())
}

// Histogram is a fixed-bucket latency histogram with an overflow bucket,
// supporting percentile queries. Bucket i covers [i*width, (i+1)*width).
type Histogram struct {
	width   int64
	buckets []int64
	over    int64
	acc     Accumulator
}

// NewHistogram returns a histogram with nbuckets buckets of the given width.
func NewHistogram(width int64, nbuckets int) *Histogram {
	if width <= 0 || nbuckets <= 0 {
		panic("sim: invalid histogram shape")
	}
	return &Histogram{width: width, buckets: make([]int64, nbuckets)}
}

// Add records a sample (negative samples clamp to 0).
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.acc.Add(float64(v))
	i := v / h.width
	if i >= int64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[i]++
}

// N returns the number of samples.
func (h *Histogram) N() int64 { return h.acc.N() }

// Mean returns the mean sample value.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Max returns the maximum sample value.
func (h *Histogram) Max() float64 { return h.acc.Max() }

// Percentile returns an upper bound for the p-th percentile (p in [0,100]).
// Samples in the overflow bucket report the observed maximum.
func (h *Histogram) Percentile(p float64) int64 {
	n := h.acc.N()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return int64(i+1) * h.width
		}
	}
	return int64(h.acc.Max())
}

// Buckets returns the bucket width, a copy of the per-bucket counts, and
// the overflow count — the raw shape that exporters (e.g. the serving
// daemon's Prometheus text exposition) need, which percentile queries
// alone cannot provide.
func (h *Histogram) Buckets() (width int64, counts []int64, overflow int64) {
	return h.width, append([]int64(nil), h.buckets...), h.over
}

// Summary renders count, mean, and the p50/p95/p99 tail on one line — the
// shape the observability layer prints per virtual network.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%.0f",
		h.N(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
}

// Reset discards all samples but keeps the shape.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.over = 0
	h.acc.Reset()
}
