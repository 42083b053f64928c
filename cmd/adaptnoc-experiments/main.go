// Command adaptnoc-experiments regenerates the paper's evaluation tables
// and figures (Section V) on the simulator.
//
// Usage:
//
//	adaptnoc-experiments [-quick] [-parallel n] [-fig list] [-pprof addr]
//	                     [-checkpoint dir] [-checkpoint-every n] [-resume]
//
// -checkpoint persists every simulation's state to the named directory
// (content-addressed by canonical config, refreshed every
// -checkpoint-every cycles, kept after completion). -resume continues an
// interrupted suite from those files — completed runs fast-forward
// straight to their results — and the emitted tables are byte-identical
// either way.
//
// -fig selects a comma-separated subset: 7,8,9,10,11,12,13,14,15,16,17,
// 18,19, area, wiring, timing, chars (latency-throughput curves),
// ablation (design-choice ablations), switching (reconfiguration cost),
// faults (latency + survival rate vs fault count; -faults sets the
// counts), or "all" (default). The figure list lives in exp.Units, shared
// with the fleet coordinator so both render identical suites.
//
// -parallel bounds how many independent simulations run at once (0 = one
// per CPU, 1 = serial). Results are identical at any setting; see
// internal/runner for the determinism contract.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"adaptnoc"
	"adaptnoc/internal/exp"
)

// parseCounts parses the -faults flag: comma-separated non-negative fault
// counts for the fault-tolerance sweep.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-faults %q: want comma-separated non-negative counts", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity runs (seconds instead of minutes)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	figs := flag.String("fig", "all", "comma-separated figures to regenerate")
	seed := flag.Uint64("seed", 0, "override the random seed (0 keeps the default)")
	parallel := flag.Int("parallel", 0, "simulations to run at once (0 = one per CPU, 1 = serial)")
	shards := flag.Int("shards", 1, "network tick shards per simulation: 1 = serial, k > 1 = k parallel row bands")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	checkpoint := flag.String("checkpoint", "", "persist per-simulation checkpoints to this directory")
	checkpointEvery := flag.Int64("checkpoint-every", 0, "cycles between checkpoint saves (0 = only at the end of each run)")
	resume := flag.Bool("resume", false, "continue from checkpoints in the -checkpoint directory")
	faultCounts := flag.String("faults", "0,2,4,8", "fault counts for the faults unit (comma-separated)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "adaptnoc-experiments: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "adaptnoc-experiments: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	o := exp.DefaultOptions()
	if *quick {
		o = exp.QuickOptions()
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	o.Parallelism = *parallel
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "adaptnoc-experiments: -shards must be at least 1")
		os.Exit(2)
	}
	o.Shards = *shards
	o.CheckpointDir = *checkpoint
	o.CheckpointEvery = adaptnoc.Cycle(*checkpointEvery)
	o.Resume = *resume
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "adaptnoc-experiments: -resume needs -checkpoint")
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "adaptnoc-experiments:", err)
		os.Exit(1)
	}
	emit := func(t exp.Table) {
		if *csvOut {
			if err := t.CSV(os.Stdout); err != nil {
				fail(err)
			}
			return
		}
		t.Print(os.Stdout)
	}

	counts, err := parseCounts(*faultCounts)
	if err != nil {
		fail(err)
	}
	params := exp.SuiteParams{
		Figs:        strings.Split(*figs, ","),
		Quick:       *quick,
		FaultCounts: counts,
	}
	units, err := exp.Units(params)
	if err != nil {
		fail(err)
	}

	for _, u := range units {
		ts, err := u.Run(o)
		if err != nil {
			fail(err)
		}
		for _, t := range ts {
			emit(t)
		}
	}
}
