package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareLedgers reads two ledgers — a parent's and a change's, or two of
// one commit — and judges every (workload, metric) pair of the end-to-end
// list against its bound. Per-layer metrics have no bound and are printed
// for the reader, except the exact ones (model results, byte counts),
// which must be equal wherever the two sides ran equal seeds. It returns
// the process exit code: 1 on any regression or inexact exact metric.
func compareLedgers(out io.Writer, pathA, pathB string) int {
	a, err := readLedger(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readLedger(pathB)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Fprintf(out, "%-14s %-30s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				verdict := judge(d, va, vb)
				if exactMetrics[d.Name] {
					verdict = judgeExact(a, b, w.Name, d.Name)
				}
				if verdict == "regressed" || verdict == "differs" {
					code = 1
				}
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(out, "%-14s %-30s %14.6g %14.6g %7.1f%% %7.1f%% %7s  %s\n",
					w.Name, d.Name, median(va), median(vb), 100*spread(va), 100*spread(vb), bound, verdict)
			}
		}
	}
	for _, l := range []*ledger{a, b} {
		for _, r := range l.Runs {
			if !r.Correct {
				fmt.Fprintf(out, "%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// values collects one metric of one workload over the ledger's runs.
func (l *ledger) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge applies the acceptance rule to one bounded metric: B's median may
// be worse than A's by at most the bound. Where either side's own spread
// is wider than the bound the pair is unresolved, not unchanged — unless
// every run of B reads better than every run of A, or the metric is
// setup_s.
func judge(d metricDef, a, b []float64) string {
	if d.Bound == 0 {
		return "info"
	}
	worse := (median(b) - median(a)) / math.Abs(median(a))
	if d.Better == "higher" {
		worse = -worse
	}
	// Set-ups here last from a fifth of a millisecond to half a second;
	// their spread is exempt, their medians are not.
	if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if d.Better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "ok"
}

// judgeExact demands equal values from runs of equal seeds and length.
func judgeExact(a, b *ledger, workload, metric string) string {
	verdict := "info"
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != workload || rb.Workload != workload || ra.Seed != rb.Seed || ra.Seconds != rb.Seconds {
				continue
			}
			va, oka := ra.Metrics[metric]
			vb, okb := rb.Metrics[metric]
			if !oka || !okb {
				continue
			}
			if va.Value != vb.Value {
				return "differs"
			}
			verdict = "exact"
		}
	}
	return verdict
}
