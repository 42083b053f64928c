package adaptnoc_test

// One benchmark per table and figure of the paper's evaluation
// (Section V), plus microbenchmarks of the substrate. Each figure bench
// regenerates its experiment at reduced (quick) fidelity and reports the
// headline comparison as custom metrics, so
//
//	go test -bench=Fig -benchtime=1x
//
// reproduces the whole evaluation in a few minutes; use
// cmd/adaptnoc-experiments (without -quick) for full-fidelity tables.

import (
	"context"
	"sync"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/exp"
	"adaptnoc/internal/fabric"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/runner"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// quickOpts returns the shared reduced-fidelity settings.
func quickOpts() exp.Options {
	return exp.QuickOptions()
}

// mixedOnce caches the mixed-workload runs shared by Figs. 7 and 10-13.
var (
	mixedOnce sync.Once
	mixedRes  exp.MixedResult
	mixedErr  error
)

func mixed(b *testing.B) exp.MixedResult {
	b.Helper()
	mixedOnce.Do(func() {
		mixedRes, mixedErr = exp.RunMixed(quickOpts(), "bfs", "canneal", "ferret")
	})
	if mixedErr != nil {
		b.Fatal(mixedErr)
	}
	return mixedRes
}

// reportNormalized emits metric = value(design)/value(baseline).
func reportNormalized(b *testing.B, name string, vals []float64, idx int) {
	if vals[0] != 0 {
		b.ReportMetric(vals[idx]/vals[0], name)
	}
}

const adaptIdx = 6 // adapt-noc position in exp.AllDesigns

func BenchmarkFig07PacketLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mixed(b)
		reportNormalized(b, "adapt/base_latency", m.Latency, adaptIdx)
	}
}

func BenchmarkFig08CPUHopCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig8(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "apps")
	}
}

func BenchmarkFig09GPUHopQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig9(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "rows")
	}
}

func BenchmarkFig10ExecTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mixed(b)
		reportNormalized(b, "adapt/base_exec", m.ExecTime, adaptIdx)
	}
}

func BenchmarkFig11Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mixed(b)
		reportNormalized(b, "adapt/base_energy", m.TotalEnergy, adaptIdx)
	}
}

func BenchmarkFig12DynamicEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mixed(b)
		reportNormalized(b, "adapt/base_dynamic", m.DynamicEnergy, adaptIdx)
	}
}

func BenchmarkFig13StaticEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := mixed(b)
		reportNormalized(b, "adapt/base_static", m.StaticEnergy, adaptIdx)
	}
}

func BenchmarkFig14CPUSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig14(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)-1), "apps")
	}
}

func BenchmarkFig15GPUSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig15(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)-1), "apps")
	}
}

func BenchmarkFig16SubNoCSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig16(quickOpts(), true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "sizes")
	}
}

func BenchmarkFig17EpochSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig17(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18Discount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig18(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19Exploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig19(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTabAreaOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.TabArea()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTabWiring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.TabWiring()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTabTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.TabTiming()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkExtraLatencyThroughput regenerates the latency-throughput
// characterization (not a paper figure; standard NoC methodology).
func BenchmarkExtraLatencyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.CharacterizeTopologies(15000, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

// BenchmarkMeshCycle measures one simulated cycle of a loaded 8x8 mesh
// (cycles/sec throughput of the core model).
func BenchmarkMeshCycle(b *testing.B) {
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps:   adaptnoc.DefaultMixed(0),
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(5000) // warm into steady state
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(adaptnoc.Cycle(b.N))
}

// BenchmarkNetworkTickIdle measures one simulated cycle of a mostly-idle
// 8x8 chip — the hot path the active-router/active-channel work lists
// target. Reports the fraction of router/channel ticks skipped.
func BenchmarkNetworkTickIdle(b *testing.B) {
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps: []adaptnoc.AppSpec{{
			Profile: "blackscholes", // near-idle traffic
			Region:  adaptnoc.Region{W: 4, H: 4},
		}},
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(5000) // warm past startup transients
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(adaptnoc.Cycle(b.N))
	b.StopTimer()
	st := s.TickStats()
	b.ReportMetric(st.RouterSkipRate(), "router_skip_rate")
	b.ReportMetric(st.ChannelSkipRate(), "chan_skip_rate")
}

// BenchmarkRunnerFanout measures fanning 8 independent quick simulations
// over the runner pool (one per CPU) — the experiment drivers' fan-out
// shape.
func BenchmarkRunnerFanout(b *testing.B) {
	seeds := runner.Seeds(2021, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := runner.Map(context.Background(), 0, seeds,
			func(_ context.Context, seed uint64) (float64, error) {
				s, err := adaptnoc.NewSim(adaptnoc.Config{
					Design: adaptnoc.DesignBaseline,
					Apps: []adaptnoc.AppSpec{{
						Profile: "bfs",
						Region:  adaptnoc.Region{W: 4, H: 4},
					}},
					Seed: seed,
				})
				if err != nil {
					return 0, err
				}
				s.Run(4000)
				return s.Results().MeanLatency(), nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDQNInference measures one forward pass of the 12-15-15-4
// policy network (paper: 486 ns in minimal hardware).
func BenchmarkDQNInference(b *testing.B) {
	rng := sim.NewRNG(1)
	n := rl.NewNet([]int{rl.StateSize, 15, 15, rl.NumActions}, rng)
	x := make([]float64, rl.StateSize)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Forward(x)
	}
}

// BenchmarkReconfiguration measures a full cmesh->torus subNoC switch
// (notification wave + drain + rebuild + Ts) on an otherwise idle region.
func BenchmarkReconfiguration(b *testing.B) {
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignAdaptNoRL,
		Apps: []adaptnoc.AppSpec{{
			Profile: "blackscholes",
			Region:  adaptnoc.Region{W: 4, H: 4},
			Static:  adaptnoc.CMesh,
		}},
		Seed:        1,
		EpochCycles: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(2000)
	kinds := []adaptnoc.Kind{adaptnoc.Torus, adaptnoc.CMesh}
	sn := s.Fabric.SubNoCs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reconfigure(0, kinds[i%2]); err != nil {
			b.Fatal(err)
		}
		for sn.State() != fabric.StateActive {
			s.Run(64)
		}
	}
}

// BenchmarkRoutingTableLookup measures the RC-stage table access.
func BenchmarkRoutingTableLookup(b *testing.B) {
	t := noc.NewRoutingTable(64)
	for d := noc.NodeID(0); d < 64; d++ {
		t.Set(d, noc.PortEast, noc.ClassKeep)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(noc.NodeID(i & 63)); !ok {
			b.Fatal("missing route")
		}
	}
}

// BenchmarkTreeTableBuild measures constructing the tree topology's
// routing state for a 4x8 region (the most complex builder).
func BenchmarkTreeTableBuild(b *testing.B) {
	cfg := noc.DefaultConfig()
	for i := 0; i < b.N; i++ {
		net := noc.NewNetwork(cfg)
		topology.ConfigureTreeRegion(net, topology.Region{W: 4, H: 8}, 0, nil)
	}
}

// BenchmarkExtraAblations regenerates the design-choice ablation table.
func BenchmarkExtraAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Ablations(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTabSwitching regenerates the reconfiguration-cost validation.
func BenchmarkTabSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TabSwitching(0); err != nil {
			b.Fatal(err)
		}
	}
}

// Trace record/replay microbenchmarks. BenchmarkTraceLiveRun is the
// synthetic mixed workload the recorder captures and BenchmarkTraceReplay
// the same traffic re-driven from the recorded dependency graph (decode
// included in every iteration), so the pair shows what replay costs
// relative to the live run.
const traceBenchCycles = 4000

func traceBenchConfig() adaptnoc.Config {
	return adaptnoc.Config{
		Design:      adaptnoc.DesignBaseline,
		Apps:        adaptnoc.DefaultMixed(0),
		Seed:        2021,
		EpochCycles: 4000,
	}
}

var (
	traceBlobOnce sync.Once
	traceBlobData []byte
	traceBlobErr  error
)

// traceBenchBlob records the live run once and caches the blob.
func traceBenchBlob(b *testing.B) []byte {
	b.Helper()
	traceBlobOnce.Do(func() {
		s, err := adaptnoc.NewSim(traceBenchConfig())
		if err != nil {
			traceBlobErr = err
			return
		}
		if traceBlobErr = s.RecordTrace(); traceBlobErr != nil {
			return
		}
		s.Run(traceBenchCycles)
		tr, err := s.FinishTrace()
		if err != nil {
			traceBlobErr = err
			return
		}
		traceBlobData, traceBlobErr = adaptnoc.EncodeTrace(tr)
	})
	if traceBlobErr != nil {
		b.Fatal(traceBlobErr)
	}
	return traceBlobData
}

func BenchmarkTraceLiveRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := adaptnoc.NewSim(traceBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
		s.Run(traceBenchCycles)
	}
}

func BenchmarkTraceReplay(b *testing.B) {
	blob := traceBenchBlob(b)
	apps, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := adaptnoc.NewSim(adaptnoc.Config{
			Design: adaptnoc.DesignBaseline, Width: w, Height: h,
			Apps: apps, Seed: 2021, EpochCycles: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !s.RunUntilFinished(traceBenchCycles * 10) {
			b.Fatal("replay did not drain")
		}
	}
}

// BenchmarkTraceReplaySetup is a replay's whole set-up, the cost every
// design variant pays before replaying a recording: deriving the specs
// from the blob, then assembling the Sim. -benchmem shows its bytes.
func BenchmarkTraceReplaySetup(b *testing.B) {
	blob := traceBenchBlob(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apps, w, h, err := adaptnoc.TraceWorkload(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adaptnoc.NewSim(adaptnoc.Config{
			Design: adaptnoc.DesignBaseline, Width: w, Height: h,
			Apps: apps, Seed: 2021, EpochCycles: 4000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
