package deadlock

import (
	"strings"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// wrapVCWatcher asserts, live, that every flit on a wraparound (dateline)
// segment occupies an escape VC — the upper half of its vnet's VC space.
// In a torus region the only adaptable-kind channels are the wraps.
type wrapVCWatcher struct {
	noc.NopTracer
	vcsPerVNet int
	wrapFlits  int
	violations []string
}

func (w *wrapVCWatcher) LinkTraversed(ch *noc.Channel, f *noc.Flit, sent, arrived sim.Cycle) {
	if ch.Kind != noc.ChanAdaptable {
		return
	}
	w.wrapFlits++
	k := f.VC - int(f.Pkt.VNet)*w.vcsPerVNet
	if k < w.vcsPerVNet/2 {
		w.violations = append(w.violations,
			ch.From.String()+"->"+ch.To.String()+" carried a class-0 flit")
	}
}

// TestTorusWraparoundUsesEscapeVCsAtRuntime drives real traffic across the
// datelines of a full-chip torus and verifies the static guarantee the CDG
// checker relies on actually holds cycle by cycle: a flit never enters a
// wraparound segment in the lower (class-0) VC half.
func TestTorusWraparoundUsesEscapeVCsAtRuntime(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 8, H: 8}
	topology.ConfigureTorusRegion(net, reg)

	watch := &wrapVCWatcher{vcsPerVNet: cfg.VCsPerVNet}
	net.SetTracer(watch)
	net.SetVerifier(32, obs.Verify)

	k := sim.NewKernel()
	k.Register(net)
	// Row and column shifts of 5 force minimal routes through the wraps
	// in both directions; both vnets participate.
	w := cfg.Width
	var sent int
	for round := 0; round < 3; round++ {
		for _, src := range reg.Tiles(w) {
			c := noc.CoordOf(src, w)
			dst := noc.Coord{X: (c.X + 5) % reg.W, Y: (c.Y + 5) % reg.H}.ID(w)
			if dst == src {
				continue
			}
			net.Enqueue(net.NewPacket(src, dst, noc.ClassData, noc.VNet(round%noc.NumVNets), 0), 0)
			sent++
		}
	}
	k.Run(20000)
	if !net.Quiescent() || net.PendingPackets() != 0 {
		t.Fatal("torus did not drain")
	}
	if net.TotalDelivered != int64(sent) {
		t.Fatalf("delivered %d of %d packets", net.TotalDelivered, sent)
	}
	if watch.wrapFlits == 0 {
		t.Fatal("no flit ever crossed a wraparound segment; test drives nothing")
	}
	if len(watch.violations) > 0 {
		t.Fatalf("%d escape-VC violations on wrap segments, first: %s",
			len(watch.violations), watch.violations[0])
	}
	if err := obs.Verify(net, k.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestTorusWrapRoutesAreMinimal pins the ring-direction choice: a border-
// to-border route takes the single wrap hop, not the long way across, and
// a route that wraps traverses exactly one adaptable segment per wrapped
// dimension.
func TestTorusWrapRoutesAreMinimal(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 8, H: 8}
	topology.ConfigureTorusRegion(net, reg)
	c := NewChecker(net)

	id := func(x, y int) noc.NodeID { return noc.Coord{X: x, Y: y}.ID(cfg.Width) }
	cases := []struct {
		src, dst  noc.NodeID
		hops      int // router-to-router channels on the walk
		wrapLinks int
	}{
		{id(0, 0), id(7, 0), 1, 1}, // straight across the X dateline
		{id(7, 3), id(1, 3), 2, 1}, // wrap east then one mesh hop
		{id(3, 0), id(3, 7), 1, 1}, // straight across the Y dateline
		{id(2, 2), id(5, 2), 3, 0}, // interior: no wrap on minimal path
		{id(0, 0), id(7, 7), 2, 2}, // corner to corner: both datelines
	}
	for _, tc := range cases {
		path, err := c.WalkRoute(tc.src, tc.dst, noc.VNetRequest)
		if err != nil {
			t.Fatalf("route %d->%d: %v", tc.src, tc.dst, err)
		}
		wraps := 0
		for _, ch := range path {
			if ch.Kind == noc.ChanAdaptable {
				wraps++
			}
		}
		if len(path) != tc.hops || wraps != tc.wrapLinks {
			t.Errorf("route %d->%d took %d hops (%d wraps), want %d (%d)",
				tc.src, tc.dst, len(path), wraps, tc.hops, tc.wrapLinks)
		}
	}
}

// TestMinimumWrapRingIsDeadlockFree covers the smallest rings that carry a
// wrap link (W or H = 3): the tie-breaking and dateline logic must hold at
// the boundary where wrap and mesh distances are closest.
func TestMinimumWrapRingIsDeadlockFree(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	for _, reg := range []topology.Region{
		{X: 0, Y: 0, W: 3, H: 3},
		{X: 5, Y: 5, W: 3, H: 3},
		{X: 0, Y: 0, W: 3, H: 8},
		{X: 0, Y: 0, W: 8, H: 3},
	} {
		net := noc.NewNetwork(cfg)
		topology.ConfigureTorusRegion(net, reg)
		if err := CheckAllPairs(net, reg.Tiles(cfg.Width)); err != nil {
			t.Errorf("minimal-wrap torus %v: %v", reg, err)
		}
	}
}

// TestBrokenRoutingFunctionIsDetected is the regression the checker must
// never lose: a routing function that forgets the dateline operation on
// wrap hops (tables keep class 0 while VC classing stays enabled — the
// plausible real-world bug, unlike stripping dateline support entirely)
// creates a ring dependency cycle that CheckAllPairs must report.
func TestBrokenRoutingFunctionIsDetected(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	net := noc.NewNetwork(cfg)
	reg := topology.Region{X: 0, Y: 0, W: 8, H: 8}
	topology.ConfigureTorusRegion(net, reg)

	// The sabotage: reinstall every table with ClassSet1 flattened to
	// ClassKeep. Dateline classing remains on, so class-0 VCs stay a
	// shared ring resource end to end.
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
				op := e.Class
				if op == noc.ClassSet1 {
					op = noc.ClassKeep
				}
				fresh.Set(d, int(e.OutPort), op)
			}
			r.SetTable(v, fresh)
		}
	}
	err := CheckAllPairs(net, reg.Tiles(cfg.Width))
	if err == nil {
		t.Fatal("dateline-free routing function went undetected")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error kind: %v", err)
	}
	// The reported cycle must implicate a wraparound (adaptable) segment
	// in class 0 — the exact resource the dateline op exists to split.
	if !strings.Contains(err.Error(), "c0") {
		t.Fatalf("cycle does not mention class-0 resources: %v", err)
	}
}
