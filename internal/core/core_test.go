package core

import (
	"testing"

	"adaptnoc/internal/fabric"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/power"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/system"
	"adaptnoc/internal/topology"
	"adaptnoc/internal/traffic"
)

// rig assembles a full Adapt-NoC stack with one app on a 4x4 subNoC.
func rig(t *testing.T, profName string, pol Policy, epoch int) (*Controller, *Binding, *sim.Kernel) {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	cfg.InjectionBypass = true
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	fab := fabric.New(net, k, fabric.DefaultConfig())
	m := system.NewMachine(net, k, system.DefaultParams())
	meter := power.NewMeter(net, power.DefaultParams())

	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	mc := noc.NodeID(0)
	sn, err := fab.Allocate(0, reg, topology.Mesh, mc)
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := traffic.ByName(profName)
	if !ok {
		t.Fatalf("no profile %q", profName)
	}
	app := system.NewApp(0, prof, reg.Tiles(cfg.Width), []noc.NodeID{mc}, 0, sim.NewRNG(11))
	m.AddApp(app)

	c := NewController(k, fab, m, meter)
	c.EpochCycles = epoch
	b := c.Bind(sn, app, pol)
	b.KeepTrace = true
	c.Start()
	return c, b, k
}

func TestControllerEpochsAndStaticPolicy(t *testing.T) {
	_, b, k := rig(t, "canneal", StaticPolicy{Kind: topology.Mesh}, 5000)
	k.Run(60000)
	if b.EpochCount < 10 {
		t.Fatalf("only %d epochs ran", b.EpochCount)
	}
	if got := b.Selections[topology.Mesh]; got != b.EpochCount {
		t.Fatalf("static policy selected mesh %d of %d epochs", got, b.EpochCount)
	}
	if b.SubNoC.Reconfigs != 0 {
		t.Fatalf("static policy triggered %d reconfigurations", b.SubNoC.Reconfigs)
	}
	if len(b.Trace) == 0 || b.Trace[0].PowerMW <= 0 {
		t.Fatalf("trace missing or power not measured: %+v", b.Trace)
	}
	if b.MeanReward() >= 0 {
		t.Fatalf("reward should be negative (cost), got %v", b.MeanReward())
	}
}

func TestControllerStaticNonMeshReconfiguresOnce(t *testing.T) {
	_, b, k := rig(t, "blackscholes", StaticPolicy{Kind: topology.CMesh}, 5000)
	k.Run(40000)
	if b.SubNoC.Kind != topology.CMesh {
		t.Fatalf("kind = %v, want cmesh", b.SubNoC.Kind)
	}
	if b.SubNoC.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want exactly 1", b.SubNoC.Reconfigs)
	}
}

func TestControllerDQNOnlineLearns(t *testing.T) {
	rng := sim.NewRNG(21)
	agent := rl.NewDQN(rl.DefaultDQNConfig(), rng)
	pol := &DQNPolicy{Agent: agent, Train: true}
	_, b, k := rig(t, "bfs", pol, 5000)
	k.Run(150000)
	if b.EpochCount < 20 {
		t.Fatalf("only %d epochs", b.EpochCount)
	}
	if agent.Replay.Len() == 0 {
		t.Fatal("no experiences recorded")
	}
	var chosen int
	for _, n := range b.Selections {
		if n > 0 {
			chosen++
		}
	}
	if chosen < 2 {
		t.Fatalf("exploration never tried a second topology: %v", b.Selections)
	}
}

func TestControllerQTablePolicy(t *testing.T) {
	pol := &QTablePolicy{Agent: rl.NewQTable(sim.NewRNG(31))}
	_, b, k := rig(t, "kmeans", pol, 5000)
	k.Run(80000)
	if pol.Agent.Entries() == 0 {
		t.Fatal("Q-table never populated")
	}
	if b.EpochCount == 0 {
		t.Fatal("no epochs")
	}
}

func TestSelectionFractionsSumToOne(t *testing.T) {
	_, b, k := rig(t, "x264", StaticPolicy{Kind: topology.Tree}, 5000)
	k.Run(40000)
	fr := b.SelectionFractions()
	var s float64
	for _, f := range fr {
		s += f
	}
	if s < 0.999 || s > 1.001 {
		t.Fatalf("fractions sum %v", s)
	}
}

func TestOSCARReallocatesVCs(t *testing.T) {
	cfg := noc.DefaultConfig() // 3 VCs per vnet
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	topology.BuildMesh(net)
	m := system.NewMachine(net, k, system.DefaultParams())

	heavy, _ := traffic.ByName("bfs")
	light, _ := traffic.ByName("blackscholes")
	reg1 := topology.Region{X: 0, Y: 0, W: 4, H: 8}
	reg2 := topology.Region{X: 4, Y: 0, W: 4, H: 8}
	a1 := system.NewApp(0, heavy, reg1.Tiles(cfg.Width), []noc.NodeID{0}, 0, sim.NewRNG(41))
	a2 := system.NewApp(1, light, reg2.Tiles(cfg.Width), []noc.NodeID{4}, 0, sim.NewRNG(42))
	m.AddApp(a1)
	m.AddApp(a2)

	o := NewOSCARController(k, net, []*system.App{a1, a2})
	o.EpochCycles = 5000
	o.Start()

	if len(o.assignment[0]) == 0 || len(o.assignment[1]) == 0 {
		t.Fatal("initial assignment missing")
	}
	k.Run(40000)
	// The heavy app should end up with more VCs than the light one.
	if len(o.assignment[0]) <= len(o.assignment[1]) {
		t.Fatalf("heavy app got %d VCs, light got %d", len(o.assignment[0]), len(o.assignment[1]))
	}
	if len(o.assignment[0])+len(o.assignment[1]) != cfg.VCsPerVNet {
		t.Fatalf("assignments don't partition the %d VCs", cfg.VCsPerVNet)
	}
	// Traffic still flows under the partition.
	tot := a1.Totals()
	if tot.Delivered == 0 {
		t.Fatal("no packets delivered under OSCAR partitioning")
	}
}

func TestControllerAccumulatesEnergyAndTrace(t *testing.T) {
	_, b, k := rig(t, "kmeans", StaticPolicy{Kind: topology.Mesh}, 5000)
	k.Run(40000)
	if b.Energy.TotalPJ() <= 0 {
		t.Fatal("no energy accumulated on the binding")
	}
	if b.Energy.DynamicPJ() <= 0 || b.Energy.StaticPJ() <= 0 {
		t.Fatalf("energy split empty: %v", b.Energy)
	}
	for _, rec := range b.Trace {
		if len(rec.State) != rl.StateSize {
			t.Fatalf("trace state size %d", len(rec.State))
		}
		for i, v := range rec.State {
			if v < 0 || v > 1 {
				t.Fatalf("epoch %d feature %d = %v out of [0,1]", rec.Epoch, i, v)
			}
		}
	}
}

func TestDQNPolicyInferenceCounting(t *testing.T) {
	agent := rl.NewDQN(rl.DefaultDQNConfig(), sim.NewRNG(3))
	pol := &DQNPolicy{Agent: agent}
	s := make([]float64, rl.StateSize)
	pol.Decide(s)
	pol.Decide(s)
	if got := pol.Inferences(); got != 2 {
		t.Fatalf("Inferences = %d, want 2", got)
	}
	if got := pol.Inferences(); got != 0 {
		t.Fatalf("second Inferences = %d, want 0", got)
	}
}

func TestStaticTorusTreePolicy(t *testing.T) {
	// The extension kind must flow through the selection histogram
	// without overrunning the action-space-sized arrays.
	_, b, k := rig(t, "kmeans", StaticPolicy{Kind: topology.TorusTree}, 5000)
	k.Run(30000)
	if b.SubNoC.Kind != topology.TorusTree {
		t.Fatalf("kind = %v", b.SubNoC.Kind)
	}
	if b.Selections[topology.TorusTree] == 0 {
		t.Fatal("extension selections not recorded")
	}
}
