package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between split streams", same)
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n < 40; n++ {
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(11)
	const trials = 200000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency %.3f", p, got)
		}
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) fired")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) did not fire")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var acc Accumulator
	for i := 0; i < 100000; i++ {
		acc.Add(r.NormFloat64())
	}
	if math.Abs(acc.Mean()) > 0.02 {
		t.Errorf("normal mean %.4f", acc.Mean())
	}
	if math.Abs(acc.StdDev()-1) > 0.02 {
		t.Errorf("normal stddev %.4f", acc.StdDev())
	}
}
