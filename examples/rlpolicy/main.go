// RLpolicy: watch the deep-Q-network control policy at work. A memory-
// intensive GPU application with alternating heavy/light phases runs in a
// 4x8 subNoC; every epoch the RL controller observes the Table I state,
// earns the reward −power×(Tnetwork+Tqueuing), and picks the topology.
// The example prints the per-epoch trace and the selection breakdown
// (the per-application bars of the paper's Figs. 14-15).
//
//	go run ./examples/rlpolicy
package main

import (
	"fmt"
	"log"

	"adaptnoc"
)

func main() {
	region := adaptnoc.Region{W: 4, H: 8}
	cfg := adaptnoc.Config{
		Design: adaptnoc.DesignAdaptNoC,
		Apps: []adaptnoc.AppSpec{{
			Profile: "bfs",
			Region:  region,
			MCTiles: adaptnoc.BlockMCs(region),
		}},
		Seed:        11,
		EpochCycles: 10000,
	}
	cfg.RL.Pretrained = adaptnoc.DefaultPolicy()

	sim, err := adaptnoc.NewSim(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sim.Run(400000)

	b := sim.Ctl.Bindings()[0]
	fmt.Println("epoch | topology | chosen | net lat | queue lat | power | reward")
	for _, rec := range b.Trace {
		fmt.Printf("%5d | %-8v | %-6v | %7.1f | %9.1f | %4.0fmW | %6.2f\n",
			rec.Epoch, rec.Kind, rec.Chosen, rec.AvgNetLat, rec.AvgQueueLat, rec.PowerMW, rec.Reward)
	}

	res := sim.Results()
	a := res.Apps[0]
	fmt.Printf("\nselection breakdown (cf. Fig. 15): mesh %.0f%%  cmesh %.0f%%  torus %.0f%%  tree %.0f%%\n",
		100*a.Selections[0], 100*a.Selections[1], 100*a.Selections[2], 100*a.Selections[3])
	fmt.Printf("reconfigurations: %d; mean packet latency %.1f cycles\n", a.Reconfigs, a.AvgTotalLatency)
}
