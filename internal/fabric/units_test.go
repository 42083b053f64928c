package fabric

import (
	"strings"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

func TestCheckWiringRejectsOverlap(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	for _, r := range net.Routers() {
		topology.EnsureAdaptPorts(r)
	}
	// Two overlapping east-going segments on row 0's forward wire:
	// [0,2] and [1,3].
	for _, id := range []noc.NodeID{1, 3} {
		r := net.Router(id)
		for r.NumPorts() < 11 {
			r.AddPort()
		}
	}
	net.Connect(noc.Endpoint{Kind: noc.EndRouter, Router: 0, Port: topology.PortAdaptEast},
		noc.Endpoint{Kind: noc.EndRouter, Router: 2, Port: topology.PortAdaptWest},
		noc.ChanAdaptable, 1, 2)
	net.Connect(noc.Endpoint{Kind: noc.EndRouter, Router: 1, Port: 9},
		noc.Endpoint{Kind: noc.EndRouter, Router: 3, Port: 10},
		noc.ChanAdaptable, 1, 2)
	err := CheckWiring(net)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping segments accepted: %v", err)
	}
}

func TestCheckWiringAllowsSharedEndpointsAndLayers(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	for _, r := range net.Routers() {
		topology.EnsureAdaptPorts(r)
	}
	// Chained segments sharing an endpoint (Fig. 3(b)) are legal.
	net.Connect(noc.Endpoint{Kind: noc.EndRouter, Router: 0, Port: topology.PortAdaptEast},
		noc.Endpoint{Kind: noc.EndRouter, Router: 2, Port: topology.PortAdaptWest},
		noc.ChanAdaptable, 1, 2)
	net.Connect(noc.Endpoint{Kind: noc.EndRouter, Router: 2, Port: topology.PortAdaptEast},
		noc.Endpoint{Kind: noc.EndRouter, Router: 4, Port: topology.PortAdaptWest},
		noc.ChanAdaptable, 1, 2)
	if err := CheckWiring(net); err != nil {
		t.Fatalf("chained segments rejected: %v", err)
	}
	// The same interval on the intermediate layer is a different wire.
	r1 := net.Router(1)
	for r1.NumPorts() < 10 {
		r1.AddPort()
	}
	r3 := net.Router(3)
	for r3.NumPorts() < 10 {
		r3.AddPort()
	}
	ch := net.Connect(noc.Endpoint{Kind: noc.EndRouter, Router: 1, Port: 9},
		noc.Endpoint{Kind: noc.EndRouter, Router: 3, Port: 9},
		noc.ChanAdaptable, 1, 2)
	ch.Intermediate = true
	if err := CheckWiring(net); err != nil {
		t.Fatalf("intermediate-layer segment rejected: %v", err)
	}
}

func TestSubNoCStateString(t *testing.T) {
	for s, want := range map[SubNoCState]string{
		StateActive: "active", StateNotifying: "notifying",
		StateDraining: "draining", StateSettingUp: "setting-up",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", int(s), s.String())
		}
	}
}

func TestSwitchLatencyModel(t *testing.T) {
	cfg := adaptConfig()
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	f := New(net, k, DefaultConfig())
	// The fixed, traffic-independent part of a switch: the notification
	// wave plus Ts, (M+N-2)*(Tr+Tl) + Ts = (4+4-2)*(2+1) + 14 = 32.
	if got := f.notificationWave(topology.Region{W: 4, H: 4}) + sim.Cycle(f.cfg.SetupCycles); got != 32 {
		t.Fatalf("notification wave + Ts = %d, want 32", got)
	}
}

func TestAllocateRejectsBadArguments(t *testing.T) {
	cfg := adaptConfig()
	net := noc.NewNetwork(cfg)
	k := sim.NewKernel()
	k.Register(net)
	f := New(net, k, DefaultConfig())
	if _, err := f.Allocate(0, topology.Region{X: 6, Y: 0, W: 4, H: 4}, topology.Mesh, 6); err == nil {
		t.Fatal("off-grid region accepted")
	}
	if _, err := f.Allocate(0, topology.Region{W: 4, H: 4}, topology.Mesh, 63); err == nil {
		t.Fatal("MC outside region accepted")
	}
}
