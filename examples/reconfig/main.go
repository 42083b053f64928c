// Reconfig: drive the deadlock-free runtime reconfiguration protocol by
// hand (Section II-C.1). An application keeps injecting traffic while its
// subNoC is switched through all four topologies; no packet is ever lost,
// and the cost of each switch — the notification wave, the drain with
// gated injection, and the Ts=14-cycle table setup — shows up as queuing
// latency in the epochs where it happens.
//
//	go run ./examples/reconfig
package main

import (
	"fmt"
	"log"

	"adaptnoc"
	"adaptnoc/internal/fabric"
)

func main() {
	region := adaptnoc.Region{W: 4, H: 4}
	sim, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignAdaptNoRL, // fabric without an RL controller
		Apps: []adaptnoc.AppSpec{{
			Profile: "x264",
			Region:  region,
			MCTiles: adaptnoc.BlockMCs(region),
			Static:  adaptnoc.Mesh,
		}},
		Seed: 3,
		// Park the epoch controller far out so manual switches are not
		// overridden by the static policy.
		EpochCycles: 10_000_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	phase := func(label string) {
		sim.Run(30000)
		res := sim.Results()
		a := res.Apps[0]
		fmt.Printf("%-22s topology=%-6v delivered=%7d  mean latency=%5.1f cycles\n",
			label, sim.Topology(0), a.DeliveredPackets, a.AvgTotalLatency)
	}

	phase("initial mesh")
	subnoc := sim.Fabric.SubNoCs()[0]
	for _, kind := range []adaptnoc.Kind{adaptnoc.CMesh, adaptnoc.Torus, adaptnoc.Tree, adaptnoc.Mesh} {
		if err := sim.Reconfigure(0, kind); err != nil {
			log.Fatal(err)
		}
		// The switch is asynchronous; traffic keeps flowing while the
		// notification wave propagates and the region drains. It is done
		// when injection reopens and the subNoC is active again.
		for subnoc.State() != fabric.StateActive {
			sim.Run(100)
		}
		phase(fmt.Sprintf("after switch to %v", kind))
	}
	fmt.Println("\nevery packet injected during the switches was delivered;")
	fmt.Println("the drain and Ts setup cost appears only as brief queuing.")
}
