package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the p-quantile (0 <= p <= 1) of an ascending sample by
// linear interpolation between closest ranks. An empty sample reads 0.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(pos)
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentileLadder are the percentiles a timing may be reported at, in
// per mille so that "ten samples beyond" is whole-number arithmetic.
var percentileLadder = []int{500, 900, 950, 990, 999}

// tailPercentile picks the highest ladder percentile that still has at
// least ten of n samples beyond it, so the reported tail is never decided
// by a handful of outliers. Below twenty samples that is the median.
func tailPercentile(n int) float64 {
	p := percentileLadder[0]
	for _, q := range percentileLadder {
		if n*(1000-q) >= 10*1000 {
			p = q
		}
	}
	return float64(p) / 1000
}

// spread is the interquartile range as a share of the median — the
// run-to-run spread the acceptance rule compares with a metric's bound.
// Fewer than four values fall back to (max-min)/median; one value reads 0.
func spread(xs []float64) float64 {
	asc := sorted(xs)
	med := quantile(asc, 0.5)
	if len(asc) < 2 || med == 0 {
		return 0
	}
	if len(asc) < 4 {
		return (asc[len(asc)-1] - asc[0]) / math.Abs(med)
	}
	return (quantile(asc, 0.75) - quantile(asc, 0.25)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perCall times f and returns the median duration of one call. Fast calls
// are timed in batches (sized so a batch outlasts the clock's own cost by
// orders of magnitude); sampling stops after 30 batches or 40 ms, with at
// least three so one slow call cannot be the answer.
func perCall(f func()) time.Duration {
	timeBatch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start)
	}
	batch, first := 1, timeBatch(1)
	for first < 50*time.Microsecond && batch < 1<<16 {
		batch *= 4
		first = timeBatch(batch)
	}
	samples := []float64{float64(first) / float64(batch)}
	deadline := time.Now().Add(40 * time.Millisecond)
	for len(samples) < 3 || (len(samples) < 30 && time.Now().Before(deadline)) {
		samples = append(samples, float64(timeBatch(batch))/float64(batch))
	}
	return time.Duration(median(samples))
}
