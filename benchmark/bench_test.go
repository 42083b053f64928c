package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"adaptnoc"
)

// warmBlob is a short-warmed mixed baseline, checkpointed.
func warmBlob(t *testing.T) []byte {
	t.Helper()
	s, err := adaptnoc.NewSim(mixedConfig(adaptnoc.DesignBaseline, 7))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func restoreSim(t *testing.T, blob []byte) *adaptnoc.Sim {
	t.Helper()
	s, err := adaptnoc.RestoreSim(blob)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The probe's three hooks must partition a step: their spans sum to the
// wall time of the probed run, the probe allocates nothing per cycle, and
// the simulation computes what it computes without it.
func TestProbeAccounting(t *testing.T) {
	const cycles, slice = 4000, 1000
	blob := warmBlob(t)
	r := &run{res: &result{Metrics: map[string]metricValue{}, Info: map[string]any{}}}

	plain := restoreSim(t, blob)
	before := mallocs()
	runSlices(plain, cycles, slice)
	plainAllocs := mallocs() - before
	_, plainDigest := r.closeSim(plain, 2000+cycles)

	probed := restoreSim(t, blob)
	p := attachProbe(probed)
	before = mallocs()
	layers, walls := r.probedSlices(probed, p, "pass", cycles, slice)
	probedAllocs := mallocs() - before
	_, probedDigest := r.closeSim(probed, 2000+cycles)

	lt := totalLayers(layers)
	if lt.Cycles != cycles {
		t.Errorf("probe saw %d cycles, want %d", lt.Cycles, cycles)
	}
	if got, wall := float64(lt.total()), float64(sum(walls)); math.Abs(got-wall) > 0.02*wall {
		t.Errorf("layer spans sum to %.0f ns of a %.0f ns wall: more than 2%% apart", got, wall)
	}
	if lt.Events <= 0 || lt.Noc <= 0 || lt.System <= 0 {
		t.Errorf("a layer got no time: %+v", lt)
	}
	// The per-slice bookkeeping appends a few slices; per cycle that is nothing.
	if extra := int64(probedAllocs) - int64(plainAllocs); extra > cycles/100 {
		t.Errorf("probed run made %d more allocations than the plain one over %d cycles", extra, cycles)
	}
	if probedDigest != plainDigest {
		t.Errorf("probed digest %s differs from plain %s", probedDigest, plainDigest)
	}
	if r.res.Failed != 0 {
		t.Errorf("%d checks failed", r.res.Failed)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {2040, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := math.Round(float64(c.n) * (1 - tailPercentile(c.n))); c.n >= 20 && beyond < 10 {
			t.Errorf("tailPercentile(%d) leaves only %.0f samples beyond it", c.n, beyond)
		}
	}
	asc := []float64{1, 2, 3, 4, 5}
	if got := quantile(asc, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %g", got)
	}
	if got := quantile(asc, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 of 1..5 = %g, want 4.6", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_cycles_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "ok"},
		{lower, steady, []float64{114, 115, 113, 114, 114}, "regressed"},
		{higher, steady, []float64{88, 89, 87, 88, 88}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, steady, []float64{80, 130, 100, 95, 125}, "unresolved"},
		{lower, []float64{100, 140, 120, 110, 130}, []float64{60, 70, 80, 65, 75}, "ok"},
		{metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, steady, []float64{60, 140, 100, 95, 125}, "ok"},
		{metricDef{Name: "noc.tick_share", Better: "lower"}, steady, steady, "info"},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is the catalogue rendered; both must stay inside the
// limits the driver refuses a benchmark for.
func TestManifestMatchesCatalogue(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(benchmarkManifest()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go -C benchmark run . -manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	for n := range exactMetrics {
		if lookupMetric(n) == nil {
			t.Errorf("exact metric %s is not in the catalogue", n)
		}
	}
}

// Every workload, at a fiftieth of its size, in both modes: the run must
// be correct — which includes that every metric its mode owes was emitted
// with a finite value and nothing else was — and no end-to-end metric may
// read zero.
func TestSmokeAllWorkloads(t *testing.T) {
	spans := newSpanLog()
	for i := range workloads {
		w := &workloads[i]
		if w.Name == "fleet_suite" && testing.Short() {
			continue // one suite is a fixed ten seconds of simulation
		}
		for _, traced := range []bool{false, true} {
			res := execute(w, 7, 0.1, traced, spans)
			if !res.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
			}
			owed := owedMetrics(traced)
			if len(res.Metrics) != len(owed) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(owed))
			}
			for _, d := range owed {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q", w.Name, traced, d.Name, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %g", w.Name, d.Name, v.Value)
				}
			}
		}
	}
	roots := 0
	for _, s := range spans.spans {
		if s.Parent == -1 {
			roots++
		} else if s.Parent < 0 || s.Parent >= len(spans.spans) || spans.spans[s.Parent].Workload != s.Workload {
			t.Errorf("span %s of %s hangs off span %d", s.Name, s.Workload, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %s of %s ends before it starts", s.Name, s.Workload)
		}
	}
	if roots == 0 {
		t.Error("traced runs left no spans")
	}
}
