package exp

import (
	"context"
	"fmt"

	"adaptnoc"
)

// Ablations quantifies the design choices DESIGN.md calls out by removing
// or perturbing one at a time on the memory-intensive GPU reference
// workload and reporting latency/energy relative to the full design:
//
//   - no injection bypass (Section II-A.1's bypass at the NI's VCs)
//   - tabular Q-learning instead of the DQN (Section III-A's motivation)
//   - 3 VCs/vnet (giving back the buffers the paper trades for the fabric)
//   - 10x the Ts connection-setup time (reconfiguration cost sensitivity)
//
// Not a paper figure; it substantiates the paper's individual claims.
func Ablations(o Options) (Table, error) {
	reg := adaptnoc.Region{W: 4, H: 8}
	spec := adaptnoc.AppSpec{Profile: "bfs", Region: reg, MCTiles: adaptnoc.BlockMCs(reg)}

	type variant struct {
		name  string
		apply func(*adaptnoc.Config)
	}
	variants := []variant{
		{"full design", func(*adaptnoc.Config) {}},
		{"no injection bypass", func(c *adaptnoc.Config) { c.NoInjectionBypass = true }},
		{"q-table policy", func(c *adaptnoc.Config) { c.UseQTable = true }},
		{"3 VCs/vnet", func(c *adaptnoc.Config) { c.VCsPerVNet = 3 }},
		{"Ts x10 (140 cycles)", func(c *adaptnoc.Config) { c.SetupCycles = 140 }},
	}

	t := Table{
		Title:   "Extra — ablation of Adapt-NoC design choices (bfs, 4x8 subNoC; relative to full design)",
		Columns: []string{"variant", "latency", "energy"},
		Notes: []string{
			"latency = mean packet latency ratio, energy = subNoC energy ratio",
		},
	}
	type metrics struct{ lat, energy float64 }
	ms, err := mapJobs(o, variants, func(ctx context.Context, v variant) (metrics, error) {
		cfg := o.buildConfig(adaptnoc.DesignAdaptNoC, []adaptnoc.AppSpec{spec})
		v.apply(&cfg)
		res, err := o.evalConfig(ctx, cfg, o.Cycles)
		if err != nil {
			return metrics{}, fmt.Errorf("exp: ablation %q: %w", v.name, err)
		}
		return metrics{lat: res.MeanLatency(), energy: res.Apps[0].Energy.TotalPJ()}, nil
	})
	if err != nil {
		return t, err
	}
	base := ms[0] // variants[0] is the full design
	for i, v := range variants {
		t.Rows = append(t.Rows, []string{v.name, f3(ms[i].lat / base.lat), f3(ms[i].energy / base.energy)})
	}
	return t, nil
}
