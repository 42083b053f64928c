package noc

import (
	"testing"

	"adaptnoc/internal/sim"
)

// meshRig wires a w×h mesh with XY routing and one NI per router — the
// internal tests' stand-in for topology.BuildMesh, which imports noc.
func meshRig(w, h int) *Network {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	net := NewNetwork(cfg)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := Coord{X: x, Y: y}.ID(w)
			if x+1 < w {
				net.ConnectBidir(id, PortEast, Coord{X: x + 1, Y: y}.ID(w), PortWest, ChanMesh, cfg.LinkLatency, 1)
			}
			if y+1 < h {
				net.ConnectBidir(id, PortNorth, Coord{X: x, Y: y + 1}.ID(w), PortSouth, ChanMesh, cfg.LinkLatency, 1)
			}
			net.AttachLocal(id, []NodeID{id}, 1)
			tbl := NewRoutingTable(cfg.NumNodes())
			for d := 0; d < cfg.NumNodes(); d++ {
				dc, port := CoordOf(NodeID(d), w), PortLocal
				switch {
				case dc.X > x:
					port = PortEast
				case dc.X < x:
					port = PortWest
				case dc.Y > y:
					port = PortNorth
				case dc.Y < y:
					port = PortSouth
				}
				tbl.Set(NodeID(d), port, ClassKeep)
			}
			for v := VNet(0); v < NumVNets; v++ {
				net.Router(id).SetTable(v, tbl)
			}
		}
	}
	return net
}

// awake reports whether an injector is in its region's tick set.
func awake(inj *injector) bool {
	return inj.reg.injAwake[inj.idx>>6]&(1<<(inj.idx&63)) != 0
}

// awakeSet lists the (router, port) of every injector in a tick set.
func awakeSet(net *Network) []injKey {
	var out []injKey
	for _, inj := range net.injList {
		if awake(inj) {
			out = append(out, injKey{inj.router.ID, inj.port})
		}
	}
	return out
}

// wakeAll puts every injector in its tick set; ticking after it is the
// never-parking reference run.
func wakeAll(net *Network) {
	for _, inj := range net.injList {
		inj.wake()
	}
}

// rearmNow runs the carve a Tick would run first, so a test can look at the
// tick set the carve leaves before any injector ticks.
func rearmNow(t *testing.T, net *Network) {
	t.Helper()
	if !net.carveDirty {
		t.Fatal("change did not schedule a carve")
	}
	net.carve()
}

// rootRig is an 8×8 mesh whose router at tile root also has a tree root's
// extra injection port on the same NI.
func rootRig(root NodeID) (*Network, int) {
	net := meshRig(8, 8)
	extra := net.Router(root).AddPort()
	net.AttachInjectionPort(root, extra, []NodeID{root}, 1)
	return net, extra
}

// tickUntil ticks from *now until the network has drained (or max cycles).
func tickUntil(net *Network, now *sim.Cycle, max int) {
	for i := 0; i < max && !(net.Quiescent() && net.PendingPackets() == 0); i++ {
		net.Tick(*now)
		*now++
	}
}

func TestDrainedInjectorsPark(t *testing.T) {
	net, _ := rootRig(27)
	var now sim.Cycle
	for src := NodeID(0); src < 64; src += 5 {
		net.Enqueue(net.NewPacket(src, 63-src, ClassData, VNetReply, 0), now)
	}
	net.Tick(now)
	now++
	if len(awakeSet(net)) == 0 {
		t.Fatal("no injector awake with packets queued")
	}
	tickUntil(net, &now, 500)
	if net.PendingPackets() != 0 {
		t.Fatal("network did not drain")
	}
	net.Tick(now)
	if got := awakeSet(net); len(got) != 0 {
		t.Fatalf("drained network keeps injectors %v awake", got)
	}
}

// TestEnqueueWakesServingInjectors: a packet queued at a tree root's NI
// wakes exactly that NI's two injectors, and the packet leaves and arrives
// on the same cycles as on a network whose injectors never park.
func TestEnqueueWakesServingInjectors(t *testing.T) {
	const root, dst = NodeID(27), NodeID(60)
	run := func(parking bool) (*Packet, []injKey, int) {
		net, extra := rootRig(root)
		var now sim.Cycle
		tick := func() {
			if !parking {
				wakeAll(net)
			}
			net.Tick(now)
			now++
		}
		for i := 0; i < 20; i++ {
			tick()
		}
		var got *Packet
		net.SetDeliverFunc(func(p *Packet, _ sim.Cycle) { got = p })
		net.Enqueue(net.NewPacket(root, dst, ClassData, VNetReply, 0), now)
		woken := awakeSet(net)
		for i := 0; i < 100 && got == nil; i++ {
			tick()
		}
		if got == nil {
			t.Fatal("packet not delivered")
		}
		return got, woken, extra
	}
	p, woken, extra := run(true)
	want := []injKey{{root, PortLocal}, {root, extra}}
	if len(woken) != 2 || woken[0] != want[0] || woken[1] != want[1] {
		t.Fatalf("enqueue woke %v, want %v", woken, want)
	}
	ref, _, _ := run(false)
	if p.InjectedAt != ref.InjectedAt || p.EjectedAt != ref.EjectedAt {
		t.Fatalf("parked run injected/ejected at %d/%d, never-parked run at %d/%d",
			p.InjectedAt, p.EjectedAt, ref.InjectedAt, ref.EjectedAt)
	}
	if p.InjectedAt != 20 {
		t.Fatalf("head flit left at %d, want the enqueue cycle 20", p.InjectedAt)
	}
}

func TestCarveRearmsInjectors(t *testing.T) {
	const root = NodeID(27)
	net, extra := rootRig(root)
	var now sim.Cycle
	net.Tick(now)
	now++
	if got := awakeSet(net); len(got) != 0 {
		t.Fatalf("idle network keeps %v awake", got)
	}

	// Detach and re-attach the root: every injector re-armed, and the NI's
	// wake index holds the new injectors only.
	net.DetachLocal(root)
	net.AttachLocal(root, []NodeID{root}, 1)
	net.AttachInjectionPort(root, extra, []NodeID{root}, 1)
	rearmNow(t, net)
	if got := awakeSet(net); len(got) != len(net.injList) {
		t.Fatalf("re-attach re-armed %d of %d injectors", len(got), len(net.injList))
	}
	if ni := net.NI(root); len(ni.injs) != 2 || ni.injs[0].detached || ni.injs[1].detached {
		t.Fatalf("NI %d wake index after re-attach: %d entries", root, len(ni.injs))
	}
	net.Tick(now)
	now++
	if got := awakeSet(net); len(got) != 0 {
		t.Fatalf("re-attached idle network keeps %v awake", got)
	}

	// A new shard count re-carves into new regions, all armed.
	net.SetShards(4)
	rearmNow(t, net)
	if got := awakeSet(net); len(got) != len(net.injList) {
		t.Fatalf("SetShards re-armed %d of %d injectors", len(got), len(net.injList))
	}
	net.Tick(now)
	now++
	net.Enqueue(net.NewPacket(root, 0, ClassCoherence, VNetRequest, 0), now)
	if got := awakeSet(net); len(got) != 2 || got[0].router != root {
		t.Fatalf("enqueue after SetShards woke %v", got)
	}
	net.StopWorkers()
}

// TestSecondaryStreamKeepsPrimaryAwake: while the root's extra port streams
// a packet from the shared NI, the primary has nothing of its own to send
// but must keep ticking — its QueueOccupancySum counts the open stream.
func TestSecondaryStreamKeepsPrimaryAwake(t *testing.T) {
	const root = NodeID(27)
	run := func(parking bool) NIActivity {
		net, extra := rootRig(root)
		primary := net.injectors[injKey{root, PortLocal}]
		secondary := net.injectors[injKey{root, extra}]
		var now sim.Cycle
		net.Tick(now)
		now++
		// The primary (port 0) ticks first and takes the one-flit request;
		// the secondary then opens the three-flit reply.
		net.Enqueue(net.NewPacket(root, 0, ClassCoherence, VNetRequest, 0), now)
		net.Enqueue(net.NewPacket(root, 63, ClassData, VNetReply, 0), now)
		streamed := 0
		for i := 0; i < 100; i++ {
			if !parking {
				wakeAll(net)
			}
			net.Tick(now)
			now++
			if secondary.streams[0].cur != nil {
				streamed++
				if primary.streams[0].cur != nil {
					t.Fatal("primary still streaming: the test needs it idle")
				}
				if !awake(primary) {
					t.Fatalf("cycle %d: primary parked beside the secondary's open stream", now-1)
				}
			}
		}
		if streamed == 0 {
			t.Fatal("secondary never opened a stream")
		}
		if parking && awake(primary) {
			t.Fatal("primary still awake after the stream closed")
		}
		return net.NI(root).TakeActivity()
	}
	got, want := run(true), run(false)
	if got != want {
		t.Fatalf("root NI activity with parking %+v, never parked %+v", got, want)
	}
	if got.QueueOccupancySum == 0 {
		t.Fatal("no queue occupancy accounted")
	}
}
