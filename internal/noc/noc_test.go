package noc

import (
	"strings"
	"testing"
	"testing/quick"

	"adaptnoc/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Config){
		"zero grid":         func(c *Config) { c.Width = 0 },
		"no VCs":            func(c *Config) { c.VCsPerVNet = 0 },
		"VCs past the mask": func(c *Config) { c.VCsPerVNet = MaxPortVCs/NumVNets + 1 },
		"vct depth":         func(c *Config) { c.VCDepth = c.DataFlits - 1 },
		"router latency":    func(c *Config) { c.RouterLatency = 0 },
		"link latency":      func(c *Config) { c.LinkLatency = 0 },
		"zero-flit packet":  func(c *Config) { c.CtrlFlits = 0 },
	} {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestLongLinkLatency(t *testing.T) {
	c := DefaultConfig() // 1 mm tiles, 4 mm/cycle
	for _, tc := range []struct{ tiles, want int }{
		{0, 1}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {-7, 2},
	} {
		if got := c.LongLinkLatency(tc.tiles); got != tc.want {
			t.Errorf("LongLinkLatency(%d) = %d, want %d", tc.tiles, got, tc.want)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	f := func(id uint8) bool {
		n := NodeID(id % 64)
		return CoordOf(n, 8).ID(8) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingTableOps(t *testing.T) {
	tbl := NewRoutingTable(8)
	if _, ok := tbl.Lookup(3); ok {
		t.Fatal("empty table has a route")
	}
	tbl.Set(3, PortEast, ClassSet1)
	e, ok := tbl.Lookup(3)
	if !ok || e.OutPort != PortEast || e.Class != ClassSet1 {
		t.Fatalf("lookup = %+v ok=%v", e, ok)
	}
	if _, ok := tbl.Lookup(99); ok {
		t.Fatal("out-of-range lookup succeeded")
	}
	cp := tbl.Clone()
	cp.Set(3, PortWest, ClassKeep)
	if e, _ := tbl.Lookup(3); e.OutPort != PortEast {
		t.Fatal("Clone aliases the original")
	}
	cp.Unset(3)
	if _, ok := cp.Lookup(3); ok {
		t.Fatal("Unset did not remove the route")
	}
}

func TestPortDimConvention(t *testing.T) {
	if PortDim(PortEast) != 0 || PortDim(PortWest) != 0 || PortDim(5) != 0 || PortDim(6) != 0 {
		t.Fatal("X dimension ports wrong")
	}
	if PortDim(PortNorth) != 1 || PortDim(PortSouth) != 1 || PortDim(7) != 1 || PortDim(8) != 1 {
		t.Fatal("Y dimension ports wrong")
	}
	if PortDim(PortLocal) == 0 || PortDim(PortLocal) == 1 {
		t.Fatal("local port must be its own pseudo-dimension")
	}
	if PortDim(9) == PortDim(10) {
		t.Fatal("express ports must get distinct pseudo-dimensions")
	}
}

func TestChannelOneFlitPerCycle(t *testing.T) {
	ch := newChannel(Endpoint{Kind: EndRouter, Router: 0, Port: PortEast},
		Endpoint{Kind: EndRouter, Router: 1, Port: PortWest}, ChanMesh, 1, 1)
	p := &Packet{ID: 1, Size: 2}
	fs := MakeFlits(p)
	ch.send(&fs[0], 10)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("two sends in one cycle did not panic")
		} else if !strings.Contains(r.(string), "two flits") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	ch.send(&fs[1], 10)
}

func TestChannelInactiveSendPanics(t *testing.T) {
	ch := newChannel(Endpoint{Kind: EndRouter}, Endpoint{Kind: EndRouter, Router: 1}, ChanMesh, 1, 1)
	ch.setActive(false)
	defer func() {
		if recover() == nil {
			t.Fatal("send on inactive channel did not panic")
		}
	}()
	fs := MakeFlits(&Packet{ID: 1, Size: 1})
	ch.send(&fs[0], 0)
}

func TestChannelDeliveryLatencyAndHarvest(t *testing.T) {
	ch := newChannel(Endpoint{Kind: EndRouter}, Endpoint{Kind: EndRouter, Router: 1}, ChanMesh, 3, 1)
	fs := MakeFlits(&Packet{ID: 1, Size: 1})
	ch.send(&fs[0], 5)
	delivered := 0
	ch.deliverFlits(7, func(*Flit) { delivered++ })
	if delivered != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	if !ch.Busy() {
		t.Fatal("channel with in-flight flit not busy")
	}
	ch.deliverFlits(8, func(*Flit) { delivered++ })
	if delivered != 1 {
		t.Fatalf("delivered = %d at latency", delivered)
	}
	if ch.Busy() {
		t.Fatal("drained channel still busy")
	}
	if got := ch.TakeFlits(); got != 1 {
		t.Fatalf("TakeFlits = %d", got)
	}
	if got := ch.TakeFlits(); got != 0 {
		t.Fatalf("second TakeFlits = %d, want 0", got)
	}
}

func TestMakeFlitsShape(t *testing.T) {
	p := &Packet{ID: 9, Size: 3}
	fs := MakeFlits(p)
	if len(fs) != 3 || !fs[0].Head || fs[0].Tail || !fs[2].Tail || fs[1].Head || fs[1].Tail {
		t.Fatalf("flit shape wrong: %+v", fs)
	}
	for i, f := range fs {
		if f.Seq != i || f.Pkt != p {
			t.Fatalf("flit %d mislinked", i)
		}
	}
}

// rig2 wires two routers in a row with 1:1 NIs and straight-line tables.
func rig2(cfg Config) (*Network, *sim.Kernel) {
	net := NewNetwork(cfg)
	net.ConnectBidir(0, PortEast, 1, PortWest, ChanMesh, cfg.LinkLatency, 1)
	net.AttachLocal(0, []NodeID{0}, 1)
	net.AttachLocal(1, []NodeID{1}, 1)
	t0 := NewRoutingTable(cfg.NumNodes())
	t0.Set(0, PortLocal, ClassKeep)
	t0.Set(1, PortEast, ClassKeep)
	t1 := NewRoutingTable(cfg.NumNodes())
	t1.Set(1, PortLocal, ClassKeep)
	t1.Set(0, PortWest, ClassKeep)
	for v := VNet(0); v < NumVNets; v++ {
		net.Router(0).SetTable(v, t0)
		net.Router(1).SetTable(v, t1)
	}
	k := sim.NewKernel()
	k.Register(net)
	return net, k
}

func TestVCTPacketsDoNotInterleave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, k := rig2(cfg)
	var order []uint64
	net.SetDeliverFunc(func(p *Packet, _ sim.Cycle) { order = append(order, p.ID) })
	for i := 0; i < 6; i++ {
		net.Enqueue(net.NewPacket(0, 1, ClassData, VNetReply, 0), 0)
	}
	k.Run(200)
	if len(order) != 6 {
		t.Fatalf("delivered %d of 6", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("same-flow packets reordered: %v", order)
		}
	}
	if err := net.CheckCreditInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectionBypassSavesPipelineCycles(t *testing.T) {
	lat := func(bypass bool) sim.Cycle {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = 2, 1
		cfg.InjectionBypass = bypass
		net, k := rig2(cfg)
		var total sim.Cycle
		net.SetDeliverFunc(func(p *Packet, _ sim.Cycle) { total = p.TotalLatency() })
		net.Enqueue(net.NewPacket(0, 1, ClassCoherence, VNetRequest, 0), 0)
		k.Run(100)
		return total
	}
	with, without := lat(true), lat(false)
	if with >= without {
		t.Fatalf("bypass latency %d not below %d", with, without)
	}
	if without-with != sim.Cycle(DefaultConfig().RouterLatency) {
		t.Fatalf("bypass saved %d cycles, want Tr=%d", without-with, DefaultConfig().RouterLatency)
	}
}

func TestPowerGatingAddsWakeLatencyAndSleeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, k := rig2(cfg)
	net.Router(1).EnablePowerGating(20, 5)
	var lat sim.Cycle
	net.SetDeliverFunc(func(p *Packet, _ sim.Cycle) { lat = p.TotalLatency() })

	// Let router 1 fall asleep.
	k.Run(100)
	if !net.Router(1).Asleep() {
		t.Fatal("idle gated router never slept")
	}
	net.Enqueue(net.NewPacket(0, 1, ClassCoherence, VNetRequest, 0), k.Now())
	k.RunFor(200)
	if lat == 0 {
		t.Fatal("packet not delivered through gated router")
	}

	// Compare with an ungated rig.
	net2, k2 := rig2(cfg)
	var lat2 sim.Cycle
	net2.SetDeliverFunc(func(p *Packet, _ sim.Cycle) { lat2 = p.TotalLatency() })
	k2.Run(100)
	net2.Enqueue(net2.NewPacket(0, 1, ClassCoherence, VNetRequest, 0), k2.Now())
	k2.RunFor(200)
	if lat <= lat2 {
		t.Fatalf("wake-up latency missing: gated %d vs ungated %d", lat, lat2)
	}
	act := net.Router(1).TakeActivity()
	if act.WakeUps == 0 || act.GatedCycles == 0 {
		t.Fatalf("gating not accounted: %+v", act)
	}
}

func TestVCPolicyRestrictsAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, k := rig2(cfg)
	// Forbid everything for app 7: its packets must never inject.
	policy := func(p *Packet, _ VNet, _ int) bool { return p.App != 7 }
	net.Router(0).SetVCPolicy(policy)
	net.Router(1).SetVCPolicy(policy)

	delivered := map[int]int{}
	net.SetDeliverFunc(func(p *Packet, _ sim.Cycle) { delivered[p.App]++ })
	net.Enqueue(net.NewPacket(0, 1, ClassCoherence, VNetRequest, 7), 0)
	net.Enqueue(net.NewPacket(0, 1, ClassCoherence, VNetRequest, 1), 0)
	k.Run(300)
	if delivered[7] != 0 {
		t.Fatal("fully-forbidden app still delivered")
	}
	if delivered[1] != 1 {
		t.Fatal("allowed app blocked")
	}
}

func TestGatedNIHoldsNewPackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, k := rig2(cfg)
	delivered := 0
	net.SetDeliverFunc(func(*Packet, sim.Cycle) { delivered++ })
	net.NI(0).SetGated(true)
	net.Enqueue(net.NewPacket(0, 1, ClassCoherence, VNetRequest, 0), 0)
	k.Run(100)
	if delivered != 0 {
		t.Fatal("gated NI injected")
	}
	if net.PendingPackets() != 1 {
		t.Fatalf("pending = %d, want 1", net.PendingPackets())
	}
	net.NI(0).SetGated(false)
	k.RunFor(100)
	if delivered != 1 {
		t.Fatal("ungated NI did not inject")
	}
	if !net.Quiescent() {
		t.Fatal("not quiescent after delivery")
	}
}

func TestSelfAddressedPacketPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, _ := rig2(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("self-addressed packet accepted")
		}
	}()
	net.Enqueue(net.NewPacket(1, 1, ClassCoherence, VNetRequest, 0), 0)
}

func TestActivityCountersTrackEvents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, k := rig2(cfg)
	net.Enqueue(net.NewPacket(0, 1, ClassData, VNetReply, 0), 0)
	k.Run(100)
	act := net.Router(0).TakeActivity()
	size := int64(cfg.DataFlits)
	if act.BufferWrites != size || act.BufferReads != size || act.CrossbarTrav != size {
		t.Fatalf("per-flit counters wrong: %+v", act)
	}
	if act.VAGrants != 1 || act.RoutedPackets != 1 {
		t.Fatalf("per-packet counters wrong: %+v", act)
	}
	// TakeActivity resets.
	if a2 := net.Router(0).TakeActivity(); a2.BufferWrites != 0 {
		t.Fatal("TakeActivity did not reset")
	}
}

func TestInjectionFanoutDoublesBandwidth(t *testing.T) {
	// Two injection ports draining one NI (the tree root's MC fanout)
	// must sustain ~2 flits/cycle where a single port sustains ~1.
	run := func(fanout bool) int {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = 2, 1
		net := NewNetwork(cfg)
		net.ConnectBidir(0, PortEast, 1, PortWest, ChanMesh, cfg.LinkLatency, 1)
		// Router 0 gets a second east-side channel on an extra port so the
		// two injection streams do not serialize at one output.
		p0 := net.Router(0).AddPort()
		p1 := net.Router(1).AddPort()
		net.Connect(Endpoint{Kind: EndRouter, Router: 0, Port: p0},
			Endpoint{Kind: EndRouter, Router: 1, Port: p1}, ChanMesh, cfg.LinkLatency, 1)
		net.AttachLocal(0, []NodeID{0}, 1)
		net.AttachLocal(1, []NodeID{1}, 1)
		// Router 1 gets a second ejection port so delivery is not the cap.
		ej2 := net.Router(1).AddPort()
		net.AttachLocalPort(1, ej2, []NodeID{1}, 1)
		extra := net.Router(0).AddPort()
		if fanout {
			net.AttachInjectionPort(0, extra, []NodeID{0}, 1)
		}
		// Split the two virtual networks over the two east channels so the
		// output side offers 2 flits/cycle and the injection side is the
		// binding constraint.
		tReq := NewRoutingTable(cfg.NumNodes())
		tReq.Set(0, PortLocal, ClassKeep)
		tReq.Set(1, PortEast, ClassKeep)
		tRep := NewRoutingTable(cfg.NumNodes())
		tRep.Set(0, PortLocal, ClassKeep)
		tRep.Set(1, p0, ClassKeep)
		net.Router(0).SetTable(VNetRequest, tReq)
		net.Router(0).SetTable(VNetReply, tRep)
		t1Req := NewRoutingTable(cfg.NumNodes())
		t1Req.Set(1, PortLocal, ClassKeep)
		t1Req.Set(0, PortWest, ClassKeep)
		t1Rep := NewRoutingTable(cfg.NumNodes())
		t1Rep.Set(1, ej2, ClassKeep)
		t1Rep.Set(0, PortWest, ClassKeep)
		net.Router(1).SetTable(VNetRequest, t1Req)
		net.Router(1).SetTable(VNetReply, t1Rep)
		k := sim.NewKernel()
		k.Register(net)
		delivered := 0
		net.SetDeliverFunc(func(*Packet, sim.Cycle) { delivered++ })
		// Saturating offered load of single-flit packets.
		k.Register(sim.TickerFunc(func(now sim.Cycle) {
			if now < 2000 {
				net.Enqueue(net.NewPacket(0, 1, ClassCoherence, VNetRequest, 0), now)
				net.Enqueue(net.NewPacket(0, 1, ClassData, VNetReply, 0), now)
			}
		}))
		k.Run(2400)
		return delivered
	}
	single, double := run(false), run(true)
	if single == 0 {
		t.Fatal("no throughput")
	}
	// One output channel limits both cases to ~1 flit/cycle; the fanout
	// case must clearly exceed the single injector's throughput because
	// two streams feed the router's local VCs in parallel.
	if float64(double) < 1.25*float64(single) {
		t.Fatalf("fanout throughput %d not well above single %d", double, single)
	}
}

func TestStringers(t *testing.T) {
	if VNetRequest.String() != "request" || VNetReply.String() != "reply" {
		t.Fatal("vnet strings")
	}
	if !strings.Contains(VNet(7).String(), "7") {
		t.Fatal("unknown vnet string")
	}
	if ClassCoherence.String() != "coherence" || ClassData.String() != "data" {
		t.Fatal("class strings")
	}
	e := Endpoint{Kind: EndRouter, Router: 5, Port: PortNorth}
	if e.String() != "r5.north" {
		t.Fatalf("endpoint = %q", e.String())
	}
	ni := Endpoint{Kind: EndNI, NI: 7}
	if ni.String() != "ni7" {
		t.Fatalf("NI endpoint = %q", ni.String())
	}
	for k, want := range map[ChannelKind]string{
		ChanMesh: "mesh", ChanAdaptable: "adaptable", ChanConcentration: "concentration",
		ChanExpress: "express", ChanLocal: "local",
	} {
		if k.String() != want {
			t.Fatalf("channel kind %d = %q", int(k), k.String())
		}
	}
	p := &Packet{ID: 3, Src: 1, Dst: 2, Class: ClassData, VNet: VNetReply, Size: 3, App: 0}
	if !strings.Contains(p.String(), "pkt#3") || !strings.Contains(p.String(), "1->2") {
		t.Fatalf("packet string %q", p)
	}
	tbl := NewRoutingTable(4)
	tbl.Set(1, PortEast, ClassKeep)
	if !strings.Contains(tbl.String(), "1/4") {
		t.Fatalf("table string %q", tbl.String())
	}
}

func TestPacketLatencyAccessors(t *testing.T) {
	p := &Packet{EnqueuedAt: 10, InjectedAt: 14, EjectedAt: 40}
	if p.QueuingLatency() != 4 || p.NetworkLatency() != 26 || p.TotalLatency() != 30 {
		t.Fatalf("latency accessors: %d %d %d",
			p.QueuingLatency(), p.NetworkLatency(), p.TotalLatency())
	}
}

func TestAttachedPortsCountsOnlyWired(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net, _ := rig2(cfg)
	r := net.Router(0)
	base := r.AttachedPorts() // local + east
	if base != 2 {
		t.Fatalf("AttachedPorts = %d, want 2", base)
	}
	r.AddPort() // grown but unattached: powered off
	if r.AttachedPorts() != base {
		t.Fatal("unattached port counted")
	}
}
