package noc_test

import (
	"fmt"
	"runtime"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// steadyState builds an 8x8 mesh carrying a fixed closed-loop population of
// packets: every delivery immediately enqueues a successor from the
// delivered packet's destination, so the in-flight load is constant forever
// and the tick loop runs at its true steady-state cost — no RNG, no open
// loop drift, fully deterministic. The returned step function advances one
// cycle.
func steadyState(population int) (net *noc.Network, step func(), delivered *int64) {
	return steadyStateGrid(8, 8, population, 1)
}

// steadyStateGrid is steadyState on a w×h mesh ticked with the given shard
// count — the workload of the sharded-tick scaling benchmarks.
func steadyStateGrid(w, h, population, shards int) (net *noc.Network, step func(), delivered *int64) {
	cfg := noc.DefaultConfig() // Tr=2, Tl=1
	cfg.Width, cfg.Height = w, h
	net = noc.NewNetwork(cfg)
	topology.BuildMesh(net)
	net.SetShards(shards)
	// The package test hook installs a periodic invariant verifier on every
	// network; benchmarks and allocation tests measure the bare tick loop.
	net.SetVerifier(0, nil)

	nodes := net.Cfg.NumNodes()
	const stride = 27 // coprime to power-of-two chips: packets tour the whole grid
	var count int64
	next := func(src noc.NodeID, i int64) *noc.Packet {
		dst := noc.NodeID((int(src) + stride) % nodes)
		class, vnet := noc.ClassCoherence, noc.VNetRequest
		if i%4 == 0 { // every fourth packet is multi-flit data
			class, vnet = noc.ClassData, noc.VNetReply
		}
		return net.NewPacket(src, dst, class, vnet, 0)
	}

	var now sim.Cycle
	var nDelivered int64
	net.SetDeliverFunc(func(p *noc.Packet, at sim.Cycle) {
		nDelivered++
		count++
		net.Enqueue(next(p.Dst, count), at)
	})
	for i := 0; i < population; i++ {
		count++
		net.Enqueue(next(noc.NodeID(i%nodes), count), 0)
	}
	step = func() {
		net.Tick(now)
		now++
	}
	return net, step, &nDelivered
}

// BenchmarkNetworkTick measures one cycle of the loaded steady-state tick
// loop — the per-cycle cost every simulation in the serving daemon and the
// experiment drivers pays. The companion allocation test
// (TestSteadyStateTickZeroAllocs) asserts the same workload allocates
// nothing per tick.
func BenchmarkNetworkTick(b *testing.B) {
	_, step, delivered := steadyState(96)
	for i := 0; i < 4000; i++ { // warm pools, queues, and work lists
		step()
	}
	if *delivered == 0 {
		b.Fatal("no deliveries during warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkNetworkTickSharded measures the region-parallel tick across
// chip sizes, serial vs one shard per core. The load scales with the chip
// (1.5 packets per tile) so ns/cycle reflects per-cycle work growth, and
// the speedup is shards=N over shards=1 at equal size. On a single-core
// host the sharded rows degenerate to the serial path (SetShards clamps to
// what the gang can use, and the barrier overhead is the measured cost).
func BenchmarkNetworkTickSharded(b *testing.B) {
	ks := []int{1}
	if shards := runtime.GOMAXPROCS(0); shards > 1 {
		ks = append(ks, shards)
	}
	for _, size := range []int{8, 16, 32, 64} {
		population := size * size * 3 / 2
		for _, k := range ks {
			name := fmt.Sprintf("%dx%d/shards=%d", size, size, k)
			b.Run(name, func(b *testing.B) {
				_, step, delivered := steadyStateGrid(size, size, population, k)
				for i := 0; i < 4000; i++ {
					step()
				}
				if *delivered == 0 {
					b.Fatal("no deliveries during warmup")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}
