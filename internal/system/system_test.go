package system

import (
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
	"adaptnoc/internal/traffic"
)

// buildMachine runs one app on a 4x4 mesh region.
func buildMachine(t *testing.T, prof traffic.Profile, budget int64, p Params) (*Machine, *App, *sim.Kernel) {
	t.Helper()
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	topology.ConfigureMeshRegion(net, reg)
	k := sim.NewKernel()
	k.Register(net)
	m := NewMachine(net, k, p)
	tiles := reg.Tiles(cfg.Width)
	app := NewApp(0, prof, tiles, []noc.NodeID{tiles[0]}, budget, sim.NewRNG(42))
	m.AddApp(app)
	return m, app, k
}

func TestAppRunsToCompletion(t *testing.T) {
	prof, ok := traffic.ByName("blackscholes")
	if !ok {
		t.Fatal("missing profile")
	}
	m, app, k := buildMachine(t, prof, 5000, DefaultParams())
	k.Run(2_000_000)
	if !m.AllFinished() {
		t.Fatalf("app not finished after %d cycles (progress %.0f)", k.Now(), app.Progress())
	}
	if app.FinishedAt() <= 0 {
		t.Fatal("no finish time recorded")
	}
	tot := app.Totals()
	if tot.Retired < 5000*15 { // 15 cores (16 tiles - 1 MC)
		t.Fatalf("retired %d instructions, want >= %d", tot.Retired, 5000*15)
	}
	if tot.L1DMisses == 0 || tot.DataPackets == 0 {
		t.Fatalf("no memory traffic generated: %+v", tot)
	}
}

func TestExecutionTimeSensitiveToNoCLatency(t *testing.T) {
	// A memory-bound app must finish later when the memory hierarchy is
	// slower — the closed loop that Fig. 10 depends on.
	prof, ok := traffic.ByName("canneal")
	if !ok {
		t.Fatal("missing profile")
	}
	fast := DefaultParams()
	slow := DefaultParams()
	slow.MCLatencyCycles = 400
	slow.L2LatencyCycles = 40

	run := func(p Params) sim.Cycle {
		m, app, k := buildMachine(t, prof, 3000, p)
		k.Run(3_000_000)
		if !m.AllFinished() {
			t.Fatalf("not finished (params %+v)", p)
		}
		return app.FinishedAt()
	}
	tf, ts := run(fast), run(slow)
	if ts <= tf {
		t.Fatalf("slow memory finished at %d, not after fast %d", ts, tf)
	}
}

func TestWindowCountersResetAndAccumulate(t *testing.T) {
	prof, _ := traffic.ByName("kmeans")
	_, app, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(20000)
	w1 := app.TakeWindow()
	if w1.Retired == 0 || w1.Delivered == 0 {
		t.Fatalf("empty first window: %+v", w1)
	}
	if w1.AvgNetLatency() <= 0 || w1.AvgHops() <= 0 {
		t.Fatalf("latency window empty: %+v", w1)
	}
	w2 := app.TakeWindow()
	if w2.Retired != 0 {
		t.Fatalf("window not reset: %+v", w2)
	}
	k.RunFor(20000)
	w3 := app.TakeWindow()
	if w3.Retired == 0 {
		t.Fatal("window did not accumulate after reset")
	}
}

func TestGPUProfileGeneratesMoreTrafficThanCPU(t *testing.T) {
	gpu, _ := traffic.ByName("bfs")
	cpu, _ := traffic.ByName("blackscholes")
	run := func(p traffic.Profile) int64 {
		_, app, k := buildMachine(t, p, 0, DefaultParams())
		k.Run(50000)
		tot := app.Totals()
		return tot.CoherencePackets + tot.DataPackets
	}
	g, c := run(gpu), run(cpu)
	if g <= 2*c {
		t.Fatalf("GPU traffic %d not >> CPU traffic %d", g, c)
	}
}

func TestMCSharingIncreasesServiceSpread(t *testing.T) {
	prof, _ := traffic.ByName("kmeans")
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	topology.ConfigureMeshRegion(net, reg)
	k := sim.NewKernel()
	k.Register(net)
	m := NewMachine(net, k, DefaultParams())
	tiles := reg.Tiles(cfg.Width)
	app := NewApp(0, prof, tiles, []noc.NodeID{tiles[0], tiles[3]}, 0, sim.NewRNG(1))
	m.AddApp(app)
	k.Run(60000)
	if m.mcs[tiles[0]].served == 0 || m.mcs[tiles[3]].served == 0 {
		t.Fatalf("requests not spread over both MCs: %d / %d",
			m.mcs[tiles[0]].served, m.mcs[tiles[3]].served)
	}
}

func TestStallAccountingUnderTightMLP(t *testing.T) {
	prof, _ := traffic.ByName("canneal")
	prof.MLP = 1
	_, app, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(30000)
	if app.StallCycles() == 0 {
		t.Fatal("MLP=1 memory-bound app never stalled")
	}
}

func TestForeignMCFraction(t *testing.T) {
	prof, _ := traffic.ByName("kmeans")
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	topology.BuildMesh(net)
	k := sim.NewKernel()
	k.Register(net)
	m := NewMachine(net, k, DefaultParams())
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	app := NewApp(0, prof, reg.Tiles(cfg.Width), []noc.NodeID{0}, 0, sim.NewRNG(5))
	foreign := noc.NodeID(36) // inside the chip, outside the region
	app.SetForeignMCs([]noc.NodeID{foreign}, 0.25)
	m.AddApp(app)
	k.Run(60000)
	own, f := m.mcs[0].served, m.mcs[foreign].served
	if own == 0 || f == 0 {
		t.Fatalf("MCs not both used: own=%d foreign=%d", own, f)
	}
	frac := float64(f) / float64(own+f)
	if frac < 0.18 || frac > 0.33 {
		t.Fatalf("foreign fraction %.3f, want ~0.25", frac)
	}
}
