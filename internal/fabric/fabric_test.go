package fabric

import (
	"fmt"
	"testing"

	"adaptnoc/internal/deadlock"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

func adaptConfig() noc.Config {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2 // Adapt-NoC area-equalized VC count (Section IV-A)
	cfg.InjectionBypass = true
	return cfg
}

// trafficSource keeps a region's tiles injecting uniform random traffic.
type trafficSource struct {
	net       *noc.Network
	tiles     []noc.NodeID
	rng       *sim.RNG
	rate      float64
	delivered int
	injected  int
}

func (ts *trafficSource) Tick(now sim.Cycle) {
	for _, src := range ts.tiles {
		if !ts.rng.Bernoulli(ts.rate) {
			continue
		}
		dst := ts.tiles[ts.rng.Intn(len(ts.tiles))]
		if dst == src {
			continue
		}
		class, vnet := noc.ClassCoherence, noc.VNetRequest
		if ts.rng.Bernoulli(0.5) {
			class, vnet = noc.ClassData, noc.VNetReply
		}
		ts.net.Enqueue(ts.net.NewPacket(src, dst, class, vnet, 0), now)
		ts.injected++
	}
}

func TestAllocateFourSubNoCsLikeFig1(t *testing.T) {
	cfg := adaptConfig()
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	f := New(net, k, DefaultConfig())

	// Four concurrently running applications with different topologies
	// (Fig. 1(b)).
	mk := func(app int, reg topology.Region, kind topology.Kind) *SubNoC {
		mc := noc.Coord{X: reg.X, Y: reg.Y}.ID(cfg.Width)
		sn, err := f.Allocate(app, reg, kind, mc)
		if err != nil {
			t.Fatalf("allocate app %d: %v", app, err)
		}
		return sn
	}
	subs := []*SubNoC{
		mk(0, topology.Region{X: 0, Y: 0, W: 4, H: 4}, topology.CMesh),
		mk(1, topology.Region{X: 4, Y: 0, W: 4, H: 4}, topology.Torus),
		mk(2, topology.Region{X: 0, Y: 4, W: 4, H: 4}, topology.Tree),
		mk(3, topology.Region{X: 4, Y: 4, W: 4, H: 4}, topology.Mesh),
	}

	if err := CheckWiring(net); err != nil {
		t.Fatal(err)
	}
	for _, sn := range subs {
		if err := deadlock.CheckAllPairs(net, f.RegionOf(sn)); err != nil {
			t.Fatalf("subNoC %d (%v): %v", sn.ID, sn.Kind, err)
		}
	}

	// Overlapping allocation must fail.
	if _, err := f.Allocate(9, topology.Region{X: 2, Y: 2, W: 4, H: 4}, topology.Mesh, 18); err == nil {
		t.Fatal("overlapping allocation succeeded")
	}

	// Concurrent traffic in all four subNoCs delivers completely and only
	// within its own region.
	var sources []*trafficSource
	delivered := 0
	net.SetDeliverFunc(func(p *noc.Packet, _ sim.Cycle) { delivered++ })
	for i, sn := range subs {
		ts := &trafficSource{
			net: net, tiles: f.RegionOf(sn),
			rng: sim.NewRNG(uint64(100 + i)), rate: 0.02,
		}
		sources = append(sources, ts)
		k.Register(ts)
	}
	k.Run(20000)
	// Stop injecting, drain.
	for _, ts := range sources {
		ts.rate = 0
	}
	k.RunFor(20000)

	total := 0
	for _, ts := range sources {
		total += ts.injected
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d packets", delivered, total)
	}
	if err := net.CheckCreditInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureUnderLoad(t *testing.T) {
	cfg := adaptConfig()
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	f := New(net, k, DefaultConfig())

	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	sn, err := f.Allocate(0, reg, topology.Mesh, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := f.Allocate(1, topology.Region{X: 4, Y: 0, W: 4, H: 4}, topology.Mesh, 4)
	if err != nil {
		t.Fatal(err)
	}

	delivered := 0
	net.SetDeliverFunc(func(p *noc.Packet, _ sim.Cycle) { delivered++ })
	ts := &trafficSource{net: net, tiles: f.RegionOf(sn), rng: sim.NewRNG(7), rate: 0.05}
	other1 := &trafficSource{net: net, tiles: f.RegionOf(other), rng: sim.NewRNG(8), rate: 0.05}
	k.Register(ts)
	k.Register(other1)
	k.Run(2000)

	// Cycle through every topology (including the Section II-B.4 combined
	// extension) while traffic keeps arriving.
	for _, kind := range []topology.Kind{topology.CMesh, topology.Torus, topology.Tree, topology.TorusTree, topology.Mesh} {
		if err := f.ReconfigureBlocking(sn, kind); err != nil {
			t.Fatalf("reconfigure to %v: %v", kind, err)
		}
		if sn.Kind != kind {
			t.Fatalf("kind = %v, want %v", sn.Kind, kind)
		}
		if err := CheckWiring(net); err != nil {
			t.Fatalf("after switch to %v: %v", kind, err)
		}
		if err := deadlock.CheckAllPairs(net, f.RegionOf(sn)); err != nil {
			t.Fatalf("after switch to %v: %v", kind, err)
		}
		k.RunFor(3000)
	}
	if sn.Reconfigs != 5 {
		t.Fatalf("Reconfigs = %d, want 5", sn.Reconfigs)
	}
	if sn.ReconfigCycles <= 0 {
		t.Fatal("no reconfiguration cycles accounted")
	}

	ts.rate, other1.rate = 0, 0
	k.RunFor(20000)
	if delivered != ts.injected+other1.injected {
		t.Fatalf("delivered %d of %d packets across reconfigurations",
			delivered, ts.injected+other1.injected)
	}
	// The untouched neighbour must never have been gated.
	for _, tile := range f.RegionOf(other) {
		if net.NI(tile).Gated() {
			t.Fatalf("neighbour subNoC tile %d gated by foreign reconfiguration", tile)
		}
	}
}

func TestMCSharingDeliversForeignTraffic(t *testing.T) {
	cfg := adaptConfig()
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	f := New(net, k, DefaultConfig())

	left, err := f.Allocate(0, topology.Region{X: 0, Y: 0, W: 4, H: 4}, topology.Mesh, 0)
	if err != nil {
		t.Fatal(err)
	}
	mcRight := noc.Coord{X: 4, Y: 0}.ID(cfg.Width)
	right, err := f.Allocate(1, topology.Region{X: 4, Y: 0, W: 4, H: 4}, topology.Mesh, mcRight)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ShareMC(left, mcRight); err != nil {
		t.Fatal(err)
	}
	if got := f.SharedMCs(left); len(got) != 1 || got[0] != mcRight {
		t.Fatalf("SharedMCs = %v, want [%d]", got, mcRight)
	}
	_ = right

	var deliveredPkts []*noc.Packet
	net.SetDeliverFunc(func(p *noc.Packet, _ sim.Cycle) { deliveredPkts = append(deliveredPkts, p) })

	// Requests from every left tile to the foreign MC, and replies back.
	want := 0
	for _, tile := range f.RegionOf(left) {
		if tile == mcRight {
			continue
		}
		net.Enqueue(net.NewPacket(tile, mcRight, noc.ClassCoherence, noc.VNetRequest, 0), k.Now())
		net.Enqueue(net.NewPacket(mcRight, tile, noc.ClassData, noc.VNetReply, 1), k.Now())
		want += 2
	}
	k.Run(5000)
	if len(deliveredPkts) != want {
		t.Fatalf("delivered %d of %d cross-subNoC packets", len(deliveredPkts), want)
	}

	// Sharing survives a reconfiguration of the requester.
	if err := f.ReconfigureBlocking(left, topology.Torus); err != nil {
		t.Fatal(err)
	}
	if got := f.SharedMCs(left); len(got) != 1 {
		t.Fatalf("share lost across reconfiguration: %v", got)
	}
	deliveredPkts = nil
	net.Enqueue(net.NewPacket(noc.NodeID(9), mcRight, noc.ClassCoherence, noc.VNetRequest, 0), k.Now())
	net.Enqueue(net.NewPacket(mcRight, noc.NodeID(9), noc.ClassData, noc.VNetReply, 1), k.Now())
	k.RunFor(5000)
	if len(deliveredPkts) != 2 {
		t.Fatalf("delivered %d of 2 packets after requester reconfiguration", len(deliveredPkts))
	}

	// And a reconfiguration of the owner.
	if err := f.ReconfigureBlocking(right, topology.CMesh); err != nil {
		t.Fatal(err)
	}
	if got := f.SharedMCs(left); len(got) != 1 {
		t.Fatalf("share lost across owner reconfiguration: %v", got)
	}
	deliveredPkts = nil
	net.Enqueue(net.NewPacket(noc.NodeID(9), mcRight, noc.ClassCoherence, noc.VNetRequest, 0), k.Now())
	k.RunFor(5000)
	if len(deliveredPkts) != 1 {
		t.Fatalf("request to shared MC lost after owner reconfiguration")
	}

	if err := net.CheckCreditInvariant(); err != nil {
		t.Fatal(err)
	}
}

// ReconfigureBlocking runs a reconfiguration to completion by stepping the
// kernel (other subNoCs keep running normally), so a test can check the
// wiring and routes right after the switch.
func (f *Fabric) ReconfigureBlocking(sn *SubNoC, kind topology.Kind) error {
	if err := f.Reconfigure(sn, kind); err != nil {
		return err
	}
	guard := f.kernel.Now() + 4*DrainTimeout
	for sn.State() != StateActive && f.kernel.Now() < guard {
		f.kernel.Step()
	}
	if sn.State() != StateActive {
		return fmt.Errorf("fabric: reconfiguration of subNoC %d did not complete", sn.ID)
	}
	return nil
}

// SharedMCs returns the foreign MC tiles a subNoC currently reaches.
func (f *Fabric) SharedMCs(sn *SubNoC) []noc.NodeID {
	var out []noc.NodeID
	for _, sh := range f.shares {
		if sh.requester == sn {
			out = append(out, sh.mcTile)
		}
	}
	return out
}
