package exp

import (
	"context"
	"fmt"

	"adaptnoc"
	"adaptnoc/internal/train"
)

// gpuSweepApps are the representative GPU applications used by the
// sensitivity studies (Section V-C).
func gpuSweepApps(quick bool) []string {
	if quick {
		return []string{"bfs"}
	}
	return []string{"kmeans", "bfs", "backprop"}
}

// runRLvsNoRL runs one GPU app in a region under Adapt-NoC and
// Adapt-NoC-noRL and returns (latency, energy) for each. It is used as a
// pool job body by Fig16, so it runs its own simulations serially.
func (o Options) runRLvsNoRL(ctx context.Context, app string, reg adaptnoc.Region) (rlLat, rlEnergy, noLat, noEnergy float64, err error) {
	spec := adaptnoc.AppSpec{Profile: app, Region: reg, MCTiles: adaptnoc.BlockMCs(reg), Static: adaptnoc.CMesh}
	specs := []adaptnoc.AppSpec{spec}
	oracle, err := o.oracleStatics(specs)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	no, err := o.runDesign(ctx, adaptnoc.DesignAdaptNoRL, oracle)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	withRL, err := o.runDesign(ctx, adaptnoc.DesignAdaptNoC, specs)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return withRL.MeanLatency(), withRL.Apps[0].Energy.TotalPJ(),
		no.MeanLatency(), no.Apps[0].Energy.TotalPJ(), nil
}

// Fig16 sweeps the subNoC size (2x4, 4x4, 4x8, 8x8) and reports the RL
// policy's latency and energy reductions over the static-best baseline.
func Fig16(o Options, quick bool) (Table, error) {
	sizes := []adaptnoc.Region{
		{X: 0, Y: 0, W: 2, H: 4},
		{X: 0, Y: 0, W: 4, H: 4},
		{X: 0, Y: 0, W: 4, H: 8},
		{X: 0, Y: 0, W: 8, H: 8},
	}
	t := Table{
		Title:   "Fig. 16 — RL vs static-best across subNoC sizes (GPU applications)",
		Columns: []string{"subNoC", "latency reduction", "energy reduction"},
		Notes:   []string{"paper: latency −5/−12/−17/−24% and energy −28..−35% for 2x4/4x4/4x8/8x8"},
	}
	// Each (size, app) combo — oracle probes plus the RL/no-RL pair — is
	// one pool job; the per-size averaging below walks them in order.
	apps := gpuSweepApps(quick)
	type combo struct {
		reg adaptnoc.Region
		app string
	}
	var jobs []combo
	for _, reg := range sizes {
		for _, app := range apps {
			jobs = append(jobs, combo{reg, app})
		}
	}
	type reduction struct{ lat, energy float64 }
	reds, err := mapJobs(o, jobs, func(ctx context.Context, j combo) (reduction, error) {
		oo := o
		oo.Parallelism = 1 // the combos already saturate the pool
		rlLat, rlE, noLat, noE, err := oo.runRLvsNoRL(ctx, j.app, j.reg)
		if err != nil {
			return reduction{}, err
		}
		var r reduction
		if noLat > 0 {
			r.lat = 1 - rlLat/noLat
		}
		if noE > 0 {
			r.energy = 1 - rlE/noE
		}
		return r, nil
	})
	if err != nil {
		return t, err
	}
	n := float64(len(apps))
	for si, reg := range sizes {
		var latRed, enRed float64
		for ai := range apps {
			r := reds[si*len(apps)+ai]
			latRed += r.lat
			enRed += r.energy
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", reg.W, reg.H), pct(latRed / n), pct(enRed / n),
		})
	}
	return t, nil
}

// Fig17 sweeps the epoch size (10K-100K cycles), normalized to 50K.
func Fig17(o Options) (Table, error) {
	epochs := []int{10000, 25000, 50000, 75000, 100000}
	reg := adaptnoc.Region{W: 4, H: 8}
	spec := adaptnoc.AppSpec{Profile: "bfs", Region: reg, MCTiles: adaptnoc.BlockMCs(reg)}
	lat := make([]float64, len(epochs))
	pwr := make([]float64, len(epochs))
	refIdx := 2
	results, err := mapJobs(o, epochs, func(ctx context.Context, e int) (adaptnoc.Results, error) {
		oo := o
		oo.EpochCycles = e
		if oo.Cycles < adaptnoc.Cycle(4*e) {
			oo.Cycles = adaptnoc.Cycle(4 * e) // at least a few epochs
		}
		return oo.runDesign(ctx, adaptnoc.DesignAdaptNoC, []adaptnoc.AppSpec{spec})
	})
	if err != nil {
		return Table{}, err
	}
	for i, res := range results {
		lat[i] = res.MeanLatency()
		pwr[i] = res.Apps[0].Energy.TotalPJ() / float64(res.Cycles)
	}
	t := Table{
		Title:   "Fig. 17 — epoch-size sweep (normalized to 50K)",
		Columns: []string{"epoch", "latency", "power"},
		Notes:   []string{"paper: 10K is ~17%/15% worse; 50K-100K flat; 50K best overall"},
	}
	for i, e := range epochs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dK", e/1000), f3(lat[i] / lat[refIdx]), f3(pwr[i] / pwr[refIdx]),
		})
	}
	return t, nil
}

// Fig18 sweeps the discount factor, normalized to 0.9. As in the paper,
// each gamma gets its own offline training run; the sweep then deploys
// each trained policy on the GPU reference workload.
func Fig18(o Options) (Table, error) {
	gammas := []float64{0.5, 0.7, 0.9, 0.99}
	tro := train.DefaultOptions()
	tro.Rounds = 2
	tro.EpisodeCycles = 120000
	if o.Cycles < 100000 { // quick mode
		tro.Rounds = 1
		tro.EpisodeCycles = 60000
		tro.SweepIterations = 100
	}
	return hyperSweep(o,
		"Fig. 18 — discount factor sweep, per-gamma offline training (normalized to gamma=0.9)",
		"paper: 0.9 best; small gamma ignores future, large gamma ignores present",
		gammas, 2,
		func(cfg *adaptnoc.Config, g float64) error {
			to := tro
			to.Gamma = g
			to.Seed = o.Seed + uint64(1000*g)
			agent, err := train.Train(to)
			if err != nil {
				return err
			}
			cfg.RL.Pretrained = agent.Prediction
			cfg.RL.Gamma = g
			return nil
		},
		func(g float64) string { return fmt.Sprintf("%.2f", g) },
	)
}

// Fig19 sweeps the deployment exploration rate, normalized to 0.05: the
// pretrained policy runs with different epsilon-greedy rates (the paper's
// exploration/exploitation trade-off at runtime).
func Fig19(o Options) (Table, error) {
	eps := []float64{0, 0.05, 0.1, 0.3, 0.5}
	return hyperSweep(o,
		"Fig. 19 — exploration rate sweep (normalized to epsilon=0.05)",
		"paper: 0.05 best trade-off between exploration and exploitation",
		eps, 1,
		func(cfg *adaptnoc.Config, e float64) error {
			cfg.RL.Epsilon = e
			cfg.RL.EpsilonSet = true
			return nil
		},
		func(e float64) string { return fmt.Sprintf("%.3g", e) },
	)
}

// hyperSweep runs the GPU reference app once per parameter value, each
// value (including Fig18's per-gamma offline training) as one pool job.
func hyperSweep(o Options, title, note string, vals []float64, refIdx int,
	apply func(*adaptnoc.Config, float64) error, label func(float64) string) (Table, error) {
	spec := adaptnoc.AppSpec{Profile: "bfs", Region: adaptnoc.Region{W: 4, H: 8},
		MCTiles: adaptnoc.BlockMCs(adaptnoc.Region{W: 4, H: 8})}
	lat := make([]float64, len(vals))
	pwr := make([]float64, len(vals))
	results, err := mapJobs(o, vals, func(ctx context.Context, v float64) (adaptnoc.Results, error) {
		cfg := o.buildConfig(adaptnoc.DesignAdaptNoC, []adaptnoc.AppSpec{spec})
		if err := apply(&cfg, v); err != nil {
			return adaptnoc.Results{}, err
		}
		return o.evalConfig(ctx, cfg, o.Cycles)
	})
	if err != nil {
		return Table{}, err
	}
	for i, res := range results {
		lat[i] = res.MeanLatency()
		pwr[i] = res.Apps[0].Energy.TotalPJ() / float64(res.Cycles)
	}
	t := Table{
		Title:   title,
		Columns: []string{"value", "latency", "power"},
		Notes:   []string{note},
	}
	for i, v := range vals {
		t.Rows = append(t.Rows, []string{label(v), f3(lat[i] / lat[refIdx]), f3(pwr[i] / pwr[refIdx])})
	}
	return t, nil
}
