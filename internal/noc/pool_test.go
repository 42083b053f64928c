package noc_test

import (
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// TestSteadyStateTickZeroAllocs is the allocation contract of the arena:
// once the in-flight population has peaked, Network.Tick must not touch the
// Go allocator at all. testing.AllocsPerRun returns an exact per-invocation
// average, so any allocation on any tick fails the test.
func TestSteadyStateTickZeroAllocs(t *testing.T) {
	_, step, delivered := steadyState(96)
	for i := 0; i < 4000; i++ {
		step()
	}
	if *delivered == 0 {
		t.Fatal("no deliveries during warmup")
	}
	before := *delivered
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("steady-state tick allocates %.2f times per cycle, want 0", avg)
	}
	if *delivered == before {
		t.Fatal("allocation measurement ticked a dead network")
	}
}

// TestSteadyStateShardedTickZeroAllocs extends the allocation contract to
// the region-parallel tick: once the partition is carved and every shard's
// pools and work lists have reached their high-water marks, a sharded
// Tick — gang dispatch, all worker goroutines, the boundary barrier, and
// the delivery replay — must not touch the Go allocator either.
// AllocsPerRun counts heap mallocs process-wide, so a single allocation on
// any shard worker fails the test.
func TestSteadyStateShardedTickZeroAllocs(t *testing.T) {
	net, step, delivered := steadyStateGrid(16, 16, 384, 4)
	if net.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", net.Shards())
	}
	for i := 0; i < 4000; i++ {
		step()
	}
	if *delivered == 0 {
		t.Fatal("no deliveries during warmup")
	}
	before := *delivered
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Fatalf("sharded steady-state tick allocates %.2f times per cycle, want 0", avg)
	}
	if *delivered == before {
		t.Fatal("allocation measurement ticked a dead network")
	}
}

// TestWakeFromParkZeroAllocs extends the allocation contract to the
// injector wake path: from a drained network whose injectors have all
// parked, one Enqueue wakes its NI's injector, the packet crosses the chip
// and the network drains and parks again — without an allocation.
func TestWakeFromParkZeroAllocs(t *testing.T) {
	net, _, _ := steadyState(0)
	var now sim.Cycle
	delivered := 0
	net.SetDeliverFunc(func(*noc.Packet, sim.Cycle) { delivered++ })
	roundTrip := func() {
		net.Enqueue(net.NewPacket(0, 63, noc.ClassData, noc.VNetReply, 0), now)
		for i := 0; i < 100; i++ {
			net.Tick(now)
			now++
		}
	}
	roundTrip() // first carve, arena slabs
	const runs = 50
	if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
		t.Fatalf("park → wake → drain allocates %.2f times per round trip, want 0", avg)
	}
	if delivered != runs+2 || !net.Quiescent() || net.PendingPackets() != 0 {
		t.Fatalf("%d of %d round trips delivered, quiescent=%v", delivered, runs+2, net.Quiescent())
	}
}

// TestPoolRecyclingReachesSteadyState proves the arena stops carving new
// memory once warmed: under constant closed-loop load, every NewPacket is
// served from the free lists and the carve counters freeze.
func TestPoolRecyclingReachesSteadyState(t *testing.T) {
	net, step, _ := steadyState(96)
	for i := 0; i < 4000; i++ {
		step()
	}
	warm := net.PoolStats()
	if warm.PacketsFreed == 0 || warm.SlabsFreed == 0 {
		t.Fatalf("nothing recycled during warmup: %+v", warm)
	}
	for i := 0; i < 4000; i++ {
		step()
	}
	after := net.PoolStats()
	if after.PacketsCarved != warm.PacketsCarved || after.SlabsCarved != warm.SlabsCarved ||
		after.ArenaFlits != warm.ArenaFlits {
		t.Fatalf("arena kept carving under steady load:\nwarm  %+v\nafter %+v", warm, after)
	}
	if after.PacketsReused <= warm.PacketsReused || after.SlabsReused <= warm.SlabsReused {
		t.Fatalf("free lists not serving steady-state traffic:\nwarm  %+v\nafter %+v", warm, after)
	}
}

// TestNIReassemblyStateBounded locks in the satellite guarantee that
// destination-side reassembly state is O(in-flight packets), not O(packets
// ever delivered): mid-run the per-NI pending counts stay below the fixed
// closed-loop population, and a drained network holds none at all.
func TestNIReassemblyStateBounded(t *testing.T) {
	const population = 96
	net, step, delivered := steadyState(population)
	nodes := net.Cfg.NumNodes()
	pending := func() int {
		total := 0
		for i := 0; i < nodes; i++ {
			total += net.NI(noc.NodeID(i)).RxPending()
		}
		return total
	}
	for i := 0; i < 20000; i++ {
		step()
		if p := pending(); p > population {
			t.Fatalf("cycle %d: %d packets mid-reassembly exceeds the %d in flight",
				i, p, population)
		}
	}
	if *delivered < 10*population {
		t.Fatalf("only %d deliveries in 20k cycles; load loop broken", *delivered)
	}
	// Stop the closed loop and drain: reassembly state must return to zero.
	net.SetDeliverFunc(nil)
	for i := 0; i < 5000 && !net.Quiescent(); i++ {
		step()
	}
	if !net.Quiescent() {
		t.Fatal("network did not drain")
	}
	if p := pending(); p != 0 {
		t.Fatalf("drained network still tracks %d packets mid-reassembly", p)
	}
}

// TestPoolReuseDeterminism guards the property the freelists were designed
// around (and the reason sync.Pool is banned here): recycling must be a pure
// function of simulation history, so two identical runs deliver the same
// packet IDs at the same cycles and carve/reuse identical arena traffic.
func TestPoolReuseDeterminism(t *testing.T) {
	type delivery struct {
		id uint64
		at sim.Cycle
	}
	run := func() ([]delivery, noc.PoolStats) {
		net, step, _ := steadyState(64)
		var log []delivery
		// Replace steadyState's closed-loop observer with one that also logs
		// each delivery; the re-enqueue rule stays deterministic.
		net.SetDeliverFunc(func(p *noc.Packet, at sim.Cycle) {
			log = append(log, delivery{id: p.ID, at: at})
			dst := noc.NodeID((int(p.Dst) + 27) % net.Cfg.NumNodes())
			class, vnet := noc.ClassCoherence, noc.VNetRequest
			if len(log)%4 == 0 {
				class, vnet = noc.ClassData, noc.VNetReply
			}
			net.Enqueue(net.NewPacket(p.Dst, dst, class, vnet, 0), at)
		})
		for i := 0; i < 6000; i++ {
			step()
		}
		return log, net.PoolStats()
	}
	logA, statsA := run()
	logB, statsB := run()
	if len(logA) == 0 {
		t.Fatal("no deliveries")
	}
	if statsA != statsB {
		t.Fatalf("arena traffic diverged between identical runs:\nA %+v\nB %+v", statsA, statsB)
	}
	if len(logA) != len(logB) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(logA), len(logB))
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, logA[i], logB[i])
		}
	}
}
