// Package exp regenerates every table and figure of the paper's evaluation
// (Section V). Each Fig* function runs the required simulations and
// returns a typed result with the same rows/series the paper reports;
// Print renders it as an aligned text table. Absolute numbers differ from
// the paper (different substrate), but the comparisons — who wins, by
// roughly what factor, where the sweet spots lie — are the reproduction
// target (see EXPERIMENTS.md).
package exp

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"adaptnoc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/runner"
	"adaptnoc/internal/topology"
)

// Options tune experiment cost and reproducibility.
type Options struct {
	// Cycles is the measurement window for open-ended runs.
	Cycles adaptnoc.Cycle
	// Budget is the per-core instruction budget for execution-time runs.
	Budget int64
	// EpochCycles is the control epoch.
	EpochCycles int
	// Seed drives all randomness.
	Seed uint64
	// OracleProbeCycles is the probe window used to pick the statically
	// best topology for Adapt-NoC-noRL (0 = use heuristic defaults).
	OracleProbeCycles adaptnoc.Cycle
	// Parallelism bounds how many independent simulations run at once:
	// <= 0 uses one worker per CPU (GOMAXPROCS), 1 forces serial
	// execution. Every driver collects results in job order and each
	// simulation owns its seed and state, so tables are identical at any
	// setting (see internal/runner).
	Parallelism int
	// CheckpointDir, when set, persists a checkpoint per simulation,
	// content-addressed by the canonical config, refreshed every
	// CheckpointEvery cycles and kept after completion. Checkpoints never
	// change what a run computes — they only make it resumable.
	CheckpointDir string
	// CheckpointEvery is the auto-checkpoint interval in cycles (<= 0
	// saves only at the end of each run).
	CheckpointEvery adaptnoc.Cycle
	// Resume restores each simulation from its checkpoint when one exists
	// and runs only the remaining cycles; a completed run's kept
	// checkpoint fast-forwards straight to its results. Results are
	// byte-identical either way.
	Resume bool
	// Shards sets each simulation's network-tick shard count: 1 (and the
	// zero value) is serial, k > 1 ticks row bands on k goroutines. Like
	// Parallelism this is an execution knob — results are byte-identical
	// at any setting.
	Shards int
	// Eval, when set, replaces local execution for every simulation a
	// driver would run: instead of NewSim + Run*, the driver hands the
	// fully-built configuration and its cycle limit to Eval and uses the
	// Results it returns. The limit is absolute, as in Sim.RunTo: the
	// window of a window config, the completion cap of a finite one
	// (advance until every budgeted app finishes or the cap). Because the
	// simulator is deterministic, any Eval that faithfully executes the
	// configuration (another process, a serve daemon, a fleet of them)
	// yields byte-identical tables; this is the seam the distributed
	// experiment coordinator (internal/fleet) plugs into. Checkpoint and
	// Shards options apply only to local execution and are ignored when
	// Eval is set. Eval must be safe for concurrent use: drivers fan
	// evaluations out at Options.Parallelism.
	Eval Eval
}

// Eval evaluates one simulation configuration to a cycle limit and returns
// its Results (see Options.Eval).
type Eval func(ctx context.Context, cfg adaptnoc.Config, limit adaptnoc.Cycle) (adaptnoc.Results, error)

// mapJobs fans the jobs over the runner pool at the options' parallelism
// and returns results in job order. Workers receive the pool's context and
// must thread it into Sim.RunTo so that the first failing job interrupts
// the sims still running, not just the ones not yet started.
func mapJobs[J, R any](o Options, jobs []J, worker func(context.Context, J) (R, error)) ([]R, error) {
	return runner.Map(context.Background(), o.Parallelism, jobs, worker)
}

// DefaultOptions returns full-fidelity settings (tens of minutes for the
// complete evaluation).
//
// The control epoch is 10K cycles rather than the paper's 50K: our
// synthetic application phases are several times shorter than full
// Parsec/Rodinia executions' phases, which shifts the epoch sweet spot
// down proportionally (the Fig. 17 sweep reports the shifted optimum
// honestly; EXPERIMENTS.md discusses it).
func DefaultOptions() Options {
	return Options{
		Cycles:            600000,
		Budget:            300000,
		EpochCycles:       10000,
		Seed:              2021,
		OracleProbeCycles: 150000,
	}
}

// QuickOptions returns reduced-fidelity settings for tests and smoke runs.
func QuickOptions() Options {
	return Options{
		Cycles:            60000,
		Budget:            2500,
		EpochCycles:       10000,
		Seed:              2021,
		OracleProbeCycles: 30000,
	}
}

// AllDesigns lists the evaluation's seven design points in paper order.
var AllDesigns = []adaptnoc.Design{
	adaptnoc.DesignBaseline,
	adaptnoc.DesignOSCAR,
	adaptnoc.DesignShortcut,
	adaptnoc.DesignFTBY,
	adaptnoc.DesignFTBYPG,
	adaptnoc.DesignAdaptNoRL,
	adaptnoc.DesignAdaptNoC,
}

// buildConfig assembles the Config for one design on a workload. The spec
// slice is copied: NewSim fills in per-app defaults on cfg.Apps, and
// concurrent runs must not share that storage.
func (o Options) buildConfig(d adaptnoc.Design, apps []adaptnoc.AppSpec) adaptnoc.Config {
	cfg := adaptnoc.Config{
		Design:      d,
		Apps:        append([]adaptnoc.AppSpec(nil), apps...),
		Seed:        o.Seed,
		EpochCycles: o.EpochCycles,
	}
	if d == adaptnoc.DesignAdaptNoC {
		cfg.RL.Pretrained = policy
	}
	return cfg
}

// policy is the embedded offline-trained network every Adapt-NoC run
// deploys, parsed once. Configs share it read-only: NewSim clones the
// weights it is given.
var policy = rl.Pretrained()

// checkpointFile names a simulation's checkpoint: the SHA-256 of its
// canonical config JSON, so any two runs of the same simulation — across
// figures, reruns, or processes — share one file. Empty when checkpointing
// is off.
func (o Options) checkpointFile(cfg adaptnoc.Config) (string, error) {
	if o.CheckpointDir == "" {
		return "", nil
	}
	blob, err := json.Marshal(cfg.Canonical())
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return filepath.Join(o.CheckpointDir, hex.EncodeToString(sum[:16])+".ckpt"), nil
}

// evalConfig executes one fully-built configuration to the cycle limit —
// locally, or through Options.Eval when set — and returns its Results.
// The limit is the window of a window config and the completion cap of a
// finite one (see Sim.RunTo; callers decide whether an unfinished run is
// an error). The local path carries the execution knobs: Shards, and with
// CheckpointDir set the run auto-checkpoints (content-addressed by
// canonical config) and Resume continues from wherever the last checkpoint
// stood — including a kept final checkpoint, which skips the run
// entirely. None of those knobs changes what the run computes.
func (o Options) evalConfig(ctx context.Context, cfg adaptnoc.Config, limit adaptnoc.Cycle) (adaptnoc.Results, error) {
	if o.Eval != nil {
		return o.Eval(ctx, cfg, limit)
	}
	ckpt, err := o.checkpointFile(cfg)
	if err != nil {
		return adaptnoc.Results{}, err
	}
	var s *adaptnoc.Sim
	if o.Resume && ckpt != "" {
		if restored, err := adaptnoc.RestoreSimFromFile(ckpt); err == nil {
			s = restored
		}
		// A missing or unreadable checkpoint reruns from scratch:
		// determinism makes the fast-forward an optimization only.
	}
	if s == nil {
		if s, err = adaptnoc.NewSim(cfg); err != nil {
			return adaptnoc.Results{}, err
		}
	}
	if o.Shards > 1 {
		s.SetShards(o.Shards)
		// Release the shard workers once this run's results are taken;
		// a fleet of finished simulations must not pin goroutines.
		defer s.StopWorkers()
	}
	var save func() error
	if ckpt != "" {
		cw := &adaptnoc.ChainWriter{Path: ckpt}
		save = func() error { return cw.Save(s) }
	}
	if _, err := s.RunTo(ctx, limit, o.CheckpointEvery, save); err != nil {
		return adaptnoc.Results{}, err
	}
	return s.Results(), nil
}

// unfinishedApps reports how many of cfg's budgeted applications did not
// complete within res — the finished check for budgeted runs, computed
// from Results so it holds for local and remote evaluation alike (an
// unfinished budgeted app reports ExecTime -1).
func unfinishedApps(cfg adaptnoc.Config, res adaptnoc.Results) int {
	n := 0
	for i, a := range cfg.Apps {
		if a.InstrBudget > 0 && i < len(res.Apps) && res.Apps[i].ExecTime < 0 {
			n++
		}
	}
	return n
}

// runDesign executes one design for the options' window (or until budgeted
// apps finish, capped at 100 windows) and returns results. The context
// interrupts a run in flight (within runCheckCycles kernel cycles) — pool
// cancellation does not wait for the remaining simulation window.
// Execution happens through evalConfig, so the checkpoint/shard knobs and
// the Eval hook all apply.
func (o Options) runDesign(ctx context.Context, d adaptnoc.Design, apps []adaptnoc.AppSpec) (adaptnoc.Results, error) {
	cfg := o.buildConfig(d, apps)
	limit := o.Cycles
	if cfg.Finite() {
		limit *= 100
	}
	res, err := o.evalConfig(ctx, cfg, limit)
	if err != nil {
		return adaptnoc.Results{}, fmt.Errorf("exp: %v: %w", d, err)
	}
	if unfinishedApps(cfg, res) > 0 {
		return adaptnoc.Results{}, fmt.Errorf("exp: %v did not finish within %d cycles", d, limit)
	}
	return res, nil
}

// oracleStatics picks the statically best topology per application for the
// Adapt-NoC-noRL design point by probing each topology in isolation and
// minimizing the paper's cost power×(Tnet+Tqueue). With no probe budget it
// keeps the workload's heuristic defaults. The (app, topology) probes are
// independent simulations and fan out over the runner pool; the
// first-lowest reduction below walks them in the serial loop's order, so
// the chosen topologies never depend on parallelism.
func (o Options) oracleStatics(apps []adaptnoc.AppSpec) ([]adaptnoc.AppSpec, error) {
	out := append([]adaptnoc.AppSpec(nil), apps...)
	if o.OracleProbeCycles <= 0 {
		return out, nil
	}
	type probeJob struct {
		app  int
		kind topology.Kind
	}
	var jobs []probeJob
	for i := range out {
		for k := topology.Mesh; k < topology.NumKinds; k++ {
			jobs = append(jobs, probeJob{app: i, kind: k})
		}
	}
	costs, err := mapJobs(o, jobs, func(ctx context.Context, j probeJob) (float64, error) {
		probe := out[j.app]
		probe.Static = j.kind
		probe.InstrBudget = 0
		probe.ShareMCs = 0
		res, err := o.evalConfig(ctx, adaptnoc.Config{
			Design:      adaptnoc.DesignAdaptNoRL,
			Apps:        []adaptnoc.AppSpec{probe},
			Seed:        o.Seed + uint64(j.kind),
			EpochCycles: o.EpochCycles,
		}, o.OracleProbeCycles)
		if err != nil {
			return 0, err
		}
		a := res.Apps[0]
		powerMW := a.Energy.TotalPJ() / (float64(res.Cycles) / 2.0) // 2 GHz
		return powerMW * (a.AvgNetLatency + a.AvgQueueLatency), nil
	})
	if err != nil {
		return nil, err
	}
	nk := int(topology.NumKinds - topology.Mesh)
	for i := range out {
		best, bestCost := topology.Mesh, costs[i*nk]
		for kj := 1; kj < nk; kj++ {
			if c := costs[i*nk+kj]; c < bestCost {
				best, bestCost = topology.Mesh+topology.Kind(kj), c
			}
		}
		out[i].Static = best
	}
	return out, nil
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Print writes the table.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// CSV writes the table as RFC-4180 CSV (title and notes as comments).
func (t Table) CSV(w io.Writer) error {
	fmt.Fprintf(w, "# %s\n", t.Title)
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	return nil
}

// f2/f3/pct are cell formatters.
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
