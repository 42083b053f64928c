package exp

import (
	"context"
	"fmt"

	"adaptnoc"
	"adaptnoc/internal/fabric"
	"adaptnoc/internal/runner"
)

// gatedPerSwitch measures the mean gated-injection window per mesh↔cmesh
// switch in one region, idle (blackscholes) or under live canneal traffic.
func gatedPerSwitch(reg adaptnoc.Region, loaded bool) (float64, error) {
	spec := adaptnoc.AppSpec{
		Profile: "canneal", Region: reg,
		MCTiles: adaptnoc.BlockMCs(reg), Static: adaptnoc.Mesh,
	}
	if !loaded {
		spec.Profile = "blackscholes" // near-idle traffic
	}
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design:      adaptnoc.DesignAdaptNoRL,
		Apps:        []adaptnoc.AppSpec{spec},
		Seed:        31,
		EpochCycles: 1 << 30, // manual control only
	})
	if err != nil {
		return 0, err
	}
	s.Run(2000)
	const switches = 8
	kinds := []adaptnoc.Kind{adaptnoc.CMesh, adaptnoc.Mesh}
	sn := s.Fabric.SubNoCs()[0]
	for i := 0; i < switches; i++ {
		if err := s.Reconfigure(0, kinds[i%2]); err != nil {
			return 0, err
		}
		for sn.State() != fabric.StateActive {
			s.Run(16)
		}
		s.Run(400)
	}
	return float64(sn.ReconfigCycles) / float64(sn.Reconfigs), nil
}

// TabSwitching validates the Section II-C.1 walk-through example: a
// reconfiguration costs the notification wave (M+N−2)(Tr+Tl), then a
// gated-injection window covering the in-flight drain plus the Ts=14-cycle
// connection setup. The wave is analytic; the gated window is measured on
// real mesh↔cmesh switches, idle and under live traffic. The region×load
// measurements run parallelism-wide (<= 0 uses every CPU).
func TabSwitching(parallelism int) (Table, error) {
	t := Table{
		Title:   "Sec. II-C.1 — reconfiguration cost: notification wave + measured gated window",
		Columns: []string{"subNoC", "wave (M+N-2)(Tr+Tl)", "Ts", "gated idle", "gated loaded"},
		Notes: []string{
			"gated = cycles the subNoC's NIs hold new injections (drain + Ts), per switch",
			"loaded = canneal traffic running through the switches",
		},
	}
	regions := []adaptnoc.Region{
		{W: 2, H: 4}, {W: 4, H: 4}, {W: 4, H: 8}, {W: 8, H: 8},
	}
	type job struct {
		reg    adaptnoc.Region
		loaded bool
	}
	var jobs []job
	for _, reg := range regions {
		jobs = append(jobs, job{reg, false}, job{reg, true})
	}
	gated, err := runner.Map(context.Background(), parallelism, jobs,
		func(_ context.Context, j job) (float64, error) {
			return gatedPerSwitch(j.reg, j.loaded)
		})
	if err != nil {
		return t, err
	}
	for i, reg := range regions {
		wave := (reg.W + reg.H - 2) * 3 // Tr+Tl = 3
		idle, loaded := gated[2*i], gated[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", reg.W, reg.H),
			fmt.Sprintf("%d", wave), "14", f2(idle), f2(loaded),
		})
	}
	return t, nil
}
