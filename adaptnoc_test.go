package adaptnoc

import (
	"testing"

	"adaptnoc/internal/fabric"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/topology"
)

// runDesign executes a design point on the default mixed workload for a
// fixed window and returns results.
func runDesign(t *testing.T, d Design, cycles Cycle) Results {
	t.Helper()
	s, err := NewSim(Config{
		Design:      d,
		Apps:        DefaultMixed(0),
		Seed:        1234,
		EpochCycles: 10000,
	})
	if err != nil {
		t.Fatalf("%v: %v", d, err)
	}
	s.Run(cycles)
	return s.Results()
}

func TestAllDesignsRunTheMixedWorkload(t *testing.T) {
	t.Parallel()
	for d := DesignBaseline; d < NumDesigns; d++ {
		res := runDesign(t, d, 60000)
		for _, a := range res.Apps {
			if a.DeliveredPackets == 0 {
				t.Errorf("%v: app %s delivered no packets", d, a.Profile)
			}
			if a.RetiredInstr == 0 {
				t.Errorf("%v: app %s retired no instructions", d, a.Profile)
			}
		}
		if res.TotalEnergy.TotalPJ() <= 0 {
			t.Errorf("%v: no energy accounted", d)
		}
		if res.TotalEnergy.DynamicPJ() <= 0 || res.TotalEnergy.StaticPJ() <= 0 {
			t.Errorf("%v: energy split empty: %v", d, res.TotalEnergy)
		}
	}
}

func TestAdaptDesignsReduceHopsVsBaseline(t *testing.T) {
	t.Parallel()
	base := runDesign(t, DesignBaseline, 100000)
	norl := runDesign(t, DesignAdaptNoRL, 100000)
	if norl.MeanHops() >= base.MeanHops() {
		t.Fatalf("Adapt-NoC-noRL hops %.2f not below baseline %.2f",
			norl.MeanHops(), base.MeanHops())
	}
}

func TestFTBYHasLowestHopCount(t *testing.T) {
	t.Parallel()
	base := runDesign(t, DesignBaseline, 80000)
	ftby := runDesign(t, DesignFTBY, 80000)
	if ftby.MeanHops() >= base.MeanHops() {
		t.Fatalf("FTBY hops %.2f not below baseline %.2f", ftby.MeanHops(), base.MeanHops())
	}
}

func TestExecutionTimeCompletes(t *testing.T) {
	t.Parallel()
	s, err := NewSim(Config{
		Design: DesignBaseline,
		Apps:   DefaultMixed(2000),
		Seed:   99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilFinished(5_000_000) {
		t.Fatal("mixed workload did not finish")
	}
	res := s.Results()
	if res.MeanExecTime() <= 0 {
		t.Fatalf("no execution time: %v", res.MeanExecTime())
	}
}

func TestAdaptNoCSelectsAndReconfigures(t *testing.T) {
	t.Parallel()
	s, err := NewSim(Config{
		Design:      DesignAdaptNoC,
		Apps:        DefaultMixed(0),
		Seed:        7,
		EpochCycles: 5000,
		RL:          RLOptions{Train: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100000)
	res := s.Results()
	anyReconf := false
	kindsTried := map[int]bool{}
	for _, a := range res.Apps {
		for k, f := range a.Selections {
			if f > 0 {
				kindsTried[k] = true
			}
		}
		if a.Reconfigs > 0 {
			anyReconf = true
		}
	}
	// With epsilon-greedy exploration across three subNoCs and dozens of
	// epochs, at least two topologies must have been selected somewhere.
	if len(kindsTried) < 2 {
		t.Fatalf("policy never explored beyond one topology: %v", kindsTried)
	}
	if !anyReconf {
		t.Fatal("no subNoC ever reconfigured")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	t.Parallel()
	r1 := runDesign(t, DesignAdaptNoRL, 50000)
	r2 := runDesign(t, DesignAdaptNoRL, 50000)
	if r1.MeanLatency() != r2.MeanLatency() || r1.TotalEnergy.TotalPJ() != r2.TotalEnergy.TotalPJ() {
		t.Fatalf("same seed, different results: %v vs %v", r1.MeanLatency(), r2.MeanLatency())
	}
}

func TestNewSimRejectsBadConfigs(t *testing.T) {
	t.Parallel()
	if _, err := NewSim(Config{Design: DesignBaseline}); err == nil {
		t.Fatal("accepted empty app list")
	}
	if _, err := NewSim(Config{Design: DesignBaseline, Apps: []AppSpec{
		{Profile: "no-such-benchmark", Region: Region{W: 4, H: 4}},
	}}); err == nil {
		t.Fatal("accepted unknown profile")
	}
	if _, err := NewSim(Config{Design: DesignBaseline, Apps: []AppSpec{
		{Profile: "bfs", Region: Region{W: 4, H: 4}},
		{Profile: "ferret", Region: Region{X: 2, Y: 2, W: 4, H: 4}},
	}}); err == nil {
		t.Fatal("accepted overlapping regions")
	}
}

func TestShareMCsReachForeignControllers(t *testing.T) {
	t.Parallel()
	apps := DefaultMixed(0)
	apps[0].ShareMCs = 1
	s, err := NewSim(Config{
		Design:      DesignAdaptNoRL,
		Apps:        apps,
		Seed:        3,
		EpochCycles: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The GPU app asked for one shared MC: one boundary link leaves its
	// region toward the owner's.
	reg, w := s.Fabric.SubNoCs()[0].Region, s.Net.Cfg.Width
	crossings := 0
	for _, ch := range s.Net.Channels() {
		if ch.From.Kind == noc.EndRouter && ch.To.Kind == noc.EndRouter &&
			reg.Contains(noc.CoordOf(ch.From.Router, w)) && !reg.Contains(noc.CoordOf(ch.To.Router, w)) {
			crossings++
		}
	}
	if crossings != 1 {
		t.Fatalf("GPU subNoC has %d links out of its region, want 1", crossings)
	}
	s.Run(60000)
	res := s.Results()
	if res.Apps[0].DeliveredPackets == 0 {
		t.Fatal("GPU app silent")
	}
	_ = topology.NumKinds
}

func TestPublicReconfigureAPI(t *testing.T) {
	t.Parallel()
	reg := Region{W: 4, H: 4}
	s, err := NewSim(Config{
		Design: DesignAdaptNoRL,
		Apps: []AppSpec{{
			Profile: "ferret", Region: reg, MCTiles: BlockMCs(reg), Static: Mesh,
		}},
		Seed:        5,
		EpochCycles: 1 << 20, // park the static controller
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Topology(0); got != Mesh {
		t.Fatalf("initial topology %v", got)
	}
	s.Run(5000)
	for _, kind := range []Kind{CMesh, TorusTree, Tree} {
		if err := s.Reconfigure(0, kind); err != nil {
			t.Fatalf("reconfigure to %v: %v", kind, err)
		}
		for s.Fabric.SubNoCs()[0].State() != fabric.StateActive {
			s.Run(64)
		}
		if got := s.Topology(0); got != kind {
			t.Fatalf("topology %v, want %v", got, kind)
		}
		if s.Layout(0) == "" {
			t.Fatal("empty layout")
		}
	}
	// Reconfigure on a non-fabric design must error.
	s2, err := NewSim(Config{Design: DesignBaseline, Apps: DefaultMixed(0), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Reconfigure(0, Tree); err == nil {
		t.Fatal("baseline accepted Reconfigure")
	}
	if err := s.Reconfigure(99, Tree); err == nil {
		t.Fatal("out-of-range app accepted")
	}
}

func TestTorusTreeStaticViaPublicAPI(t *testing.T) {
	t.Parallel()
	reg := Region{W: 4, H: 8}
	s, err := NewSim(Config{
		Design: DesignAdaptNoRL,
		Apps: []AppSpec{{
			Profile: "bfs", Region: reg, MCTiles: BlockMCs(reg), Static: TorusTree,
		}},
		Seed:        5,
		EpochCycles: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60000)
	res := s.Results()
	if res.Apps[0].DeliveredPackets == 0 {
		t.Fatal("no traffic under torus+tree")
	}
	if res.Apps[0].AvgHops <= 0 {
		t.Fatal("no hops recorded")
	}
}

// TestTreeRelievesMCInjectionBottleneck exercises the paper's headline
// mechanism (Section II-B.3): at memory-intensive load the mesh's queuing
// latency is dominated by the one-flit-per-cycle MC injection ports, and
// the tree's root/MC fanout removes it.
func TestTreeRelievesMCInjectionBottleneck(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(kind Kind) (queue float64) {
		reg := Region{W: 4, H: 8}
		s, err := NewSim(Config{
			Design: DesignAdaptNoRL,
			Apps: []AppSpec{{
				Profile: "bfs", Region: reg, MCTiles: BlockMCs(reg), Static: kind,
			}},
			Seed:        17,
			EpochCycles: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(150000)
		return s.Results().Apps[0].AvgQueueLatency
	}
	mesh, tree := run(Mesh), run(Tree)
	if mesh < 5 {
		t.Fatalf("mesh not at the congested operating point (queue %.1f)", mesh)
	}
	if tree > mesh/3 {
		t.Fatalf("tree queuing %.1f not well below mesh %.1f", tree, mesh)
	}
}
