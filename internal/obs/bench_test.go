package obs_test

import (
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// benchNet builds a 4x4 mesh under uniform load for overhead measurement.
func benchNet(b *testing.B) (*noc.Network, *sim.Kernel) {
	b.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	net := noc.NewNetwork(cfg)
	topology.BuildMesh(net)
	k := sim.NewKernel()
	k.Register(net)
	return net, k
}

func driveLoad(net *noc.Network, k *sim.Kernel, cycles int) {
	nodes := net.Cfg.NumNodes()
	for c := 0; c < cycles; c += 8 {
		for src := 0; src < nodes; src += 3 {
			dst := (src + 5) % nodes
			net.Enqueue(net.NewPacket(noc.NodeID(src), noc.NodeID(dst),
				noc.ClassData, noc.VNet(src%noc.NumVNets), 0), k.Now())
		}
		k.Run(sim.Cycle(int64(k.Now()) + 8))
	}
}

// BenchmarkTickTraced measures the loaded tick loop with the full tracer
// fan-out installed (chrome + metrics through a Tee) — the worst-case
// per-event cost. Compare against BenchmarkTickUntraced for the overhead.
func BenchmarkTickTraced(b *testing.B) {
	net, k := benchNet(b)
	tr := &obs.ChromeTracer{}
	net.SetTracer(obs.Tee{tr, obs.NewMetrics()})
	b.ResetTimer()
	driveLoad(net, k, b.N)
}

// BenchmarkTickUntraced is the identical workload with tracing disabled:
// each event site is a single nil check.
func BenchmarkTickUntraced(b *testing.B) {
	net, k := benchNet(b)
	b.ResetTimer()
	driveLoad(net, k, b.N)
}
