package deadlock

import (
	"strings"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/topology"
)

func TestMeshIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	topology.BuildMesh(net)
	if err := CheckAllPairs(net, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCMeshRegionIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 4, W: 4, H: 4}
	topology.ConfigureCMeshRegion(net, reg)
	if err := CheckAllPairs(net, reg.Tiles(cfg.Width)); err != nil {
		t.Fatal(err)
	}
}

func TestTorusRegionIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	for _, reg := range []topology.Region{
		{X: 0, Y: 0, W: 4, H: 4},
		{X: 0, Y: 0, W: 8, H: 8},
		{X: 4, Y: 0, W: 4, H: 8},
		{X: 0, Y: 0, W: 2, H: 4},
	} {
		net := noc.NewNetwork(cfg)
		topology.ConfigureTorusRegion(net, reg)
		if err := CheckAllPairs(net, reg.Tiles(cfg.Width)); err != nil {
			t.Errorf("torus %v: %v", reg, err)
		}
	}
}

func TestTorusWithoutDatelineHasCycle(t *testing.T) {
	// Sanity for the checker itself: disabling dateline classing on a
	// torus ring must surface a dependency cycle. (A 4-ring with minimal
	// routing and ties broken away from the wrap link is genuinely
	// acyclic, so use the full 8-wide rings where the cycle is real.)
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 8, H: 8}
	topology.ConfigureTorusRegion(net, reg)

	// Strip the dateline class ops: rebuild tables with ClassKeep on wraps
	// by reinstalling every route with ClassKeep.
	for _, id := range reg.Tiles(cfg.Width) {
		r := net.Router(id)
		for _, v := range []noc.VNet{noc.VNetRequest, noc.VNetReply} {
			old := r.Table(v)
			fresh := noc.NewRoutingTable(cfg.NumNodes())
			for d := noc.NodeID(0); int(d) < cfg.NumNodes(); d++ {
				e, ok := old.Lookup(d)
				if !ok {
					continue
				}
				fresh.Set(d, int(e.OutPort), noc.ClassKeep)
			}
			r.SetTable(v, fresh)
		}
		r.SetDateline(false)
	}
	err := CheckAllPairs(net, reg.Tiles(cfg.Width))
	if err == nil {
		t.Fatal("expected a dependency cycle on a dateline-free torus")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error kind: %v", err)
	}
}

func TestTreeRegionIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	for _, tc := range []struct {
		reg  topology.Region
		root noc.Coord
	}{
		{topology.Region{X: 0, Y: 0, W: 4, H: 4}, noc.Coord{X: 0, Y: 0}},
		{topology.Region{X: 0, Y: 0, W: 4, H: 4}, noc.Coord{X: 2, Y: 1}},
		{topology.Region{X: 0, Y: 0, W: 4, H: 8}, noc.Coord{X: 1, Y: 3}},
		{topology.Region{X: 2, Y: 2, W: 2, H: 4}, noc.Coord{X: 2, Y: 2}},
		{topology.Region{X: 0, Y: 0, W: 8, H: 8}, noc.Coord{X: 3, Y: 4}},
	} {
		net := noc.NewNetwork(cfg)
		topology.ConfigureTreeRegion(net, tc.reg, tc.root.ID(cfg.Width), nil)
		if err := CheckAllPairs(net, tc.reg.Tiles(cfg.Width)); err != nil {
			t.Errorf("tree %v root %v: %v", tc.reg, tc.root, err)
		}
	}
}

func TestTorusTreeRegionIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	for _, tc := range []struct {
		reg  topology.Region
		root noc.Coord
	}{
		{topology.Region{X: 0, Y: 0, W: 4, H: 4}, noc.Coord{X: 0, Y: 0}},
		{topology.Region{X: 0, Y: 0, W: 4, H: 8}, noc.Coord{X: 2, Y: 4}},
		{topology.Region{X: 0, Y: 0, W: 8, H: 8}, noc.Coord{X: 4, Y: 4}},
		{topology.Region{X: 4, Y: 4, W: 4, H: 4}, noc.Coord{X: 6, Y: 5}},
	} {
		net := noc.NewNetwork(cfg)
		topology.ConfigureTorusTreeRegion(net, tc.reg, tc.root.ID(cfg.Width), nil)
		if err := CheckAllPairs(net, tc.reg.Tiles(cfg.Width)); err != nil {
			t.Errorf("torus+tree %v root %v: %v", tc.reg, tc.root, err)
		}
	}
}

func TestFlattenedButterflyIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.RouterLatency = 3
	cfg.VCsPerVNet = 4
	net := noc.NewNetwork(cfg)
	topology.BuildFlattenedButterfly(net)
	if err := CheckAllPairs(net, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShortcutMeshIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	topology.BuildShortcutMesh(net, []topology.Shortcut{
		{A: 0, B: 7}, {A: 56, B: 63}, {A: 0, B: 56}, {A: 16, B: 23},
	})
	if err := CheckAllPairs(net, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWalkRouteReportsMissingRoute(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 4, H: 4}
	topology.ConfigureMeshRegion(net, reg)
	c := NewChecker(net)
	// Tile 7 is outside the configured region: unattached.
	if _, err := c.WalkRoute(0, 7, noc.VNetRequest); err == nil {
		t.Fatal("expected error for route to unattached tile")
	}
}

func TestFindCycleOnSyntheticGraph(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 2
	net := noc.NewNetwork(cfg)
	// Ring of four routers 0 -> 1 -> 3 -> 2 -> 0 with circular routes.
	topology.EnsureAdaptPorts(net.Router(0))
	net.ConnectBidir(0, noc.PortEast, 1, noc.PortWest, noc.ChanMesh, 1, 1)
	net.ConnectBidir(1, noc.PortSouth, 3, noc.PortNorth, noc.ChanMesh, 1, 1)
	net.ConnectBidir(3, noc.PortWest, 2, noc.PortEast, noc.ChanMesh, 1, 1)
	net.ConnectBidir(2, noc.PortNorth, 0, noc.PortSouth, noc.ChanMesh, 1, 1)
	for t0 := noc.NodeID(0); t0 < 4; t0++ {
		net.AttachLocal(t0, []noc.NodeID{t0}, 1)
	}
	// Force clockwise-only routing: each router forwards clockwise.
	next := map[noc.NodeID]int{0: noc.PortEast, 1: noc.PortSouth, 3: noc.PortWest, 2: noc.PortNorth}
	for id := noc.NodeID(0); id < 4; id++ {
		tbl := noc.NewRoutingTable(4)
		for dst := noc.NodeID(0); dst < 4; dst++ {
			if dst == id {
				tbl.Set(dst, noc.PortLocal, noc.ClassKeep)
			} else {
				tbl.Set(dst, next[id], noc.ClassKeep)
			}
		}
		net.Router(id).SetTable(noc.VNetRequest, tbl)
		net.Router(id).SetTable(noc.VNetReply, tbl)
	}
	err := CheckAllPairs(net, []noc.NodeID{0, 1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("clockwise ring not flagged: %v", err)
	}
}

func TestCheckerCatchesLivelock(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	net := noc.NewNetwork(cfg)
	net.ConnectBidir(0, noc.PortEast, 1, noc.PortWest, noc.ChanMesh, 1, 1)
	net.AttachLocal(0, []noc.NodeID{0}, 1)
	net.AttachLocal(1, []noc.NodeID{1}, 1)
	// Ping-pong routes that never eject.
	t0 := noc.NewRoutingTable(2)
	t0.Set(0, noc.PortLocal, noc.ClassKeep)
	t0.Set(1, noc.PortEast, noc.ClassKeep)
	t1 := noc.NewRoutingTable(2)
	t1.Set(0, noc.PortWest, noc.ClassKeep)
	t1.Set(1, noc.PortWest, noc.ClassKeep) // bounces its own tile back!
	for v := noc.VNet(0); v < noc.NumVNets; v++ {
		net.Router(0).SetTable(v, t0)
		net.Router(1).SetTable(v, t1)
	}
	c := NewChecker(net)
	if _, err := c.WalkRoute(0, 1, noc.VNetRequest); err == nil {
		t.Fatal("non-terminating route accepted")
	}
}
