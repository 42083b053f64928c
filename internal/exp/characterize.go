package exp

import (
	"context"
	"fmt"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/runner"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
	"adaptnoc/internal/traffic"
)

// LatThroughputPoint is one (injection rate, latency) measurement.
type LatThroughputPoint struct {
	Rate      float64 // offered packets per node per cycle
	Latency   float64 // mean total packet latency, cycles
	Accepted  float64 // delivered packets per node per cycle
	Saturated bool    // latency exceeded the saturation threshold
}

// latThroughputPoint measures one (topology, rate) point on its own raw
// network and kernel. It is fully self-contained, so points fan out over
// the runner pool; seed must already include the per-point offset.
func latThroughputPoint(kind topology.Kind, reg topology.Region, rate float64,
	cyclesPerPoint sim.Cycle, seed uint64) (LatThroughputPoint, error) {

	const satLatency = 500.0
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = 2
	cfg.InjectionBypass = true
	net := noc.NewNetwork(cfg)
	switch kind {
	case topology.Mesh:
		topology.ConfigureMeshRegion(net, reg)
	case topology.CMesh:
		topology.ConfigureCMeshRegion(net, reg)
	case topology.Torus:
		topology.ConfigureTorusRegion(net, reg)
	case topology.Tree:
		topology.ConfigureTreeRegion(net, reg, noc.Coord{X: reg.X, Y: reg.Y}.ID(cfg.Width), nil)
	case topology.TorusTree:
		topology.ConfigureTorusTreeRegion(net, reg, noc.Coord{X: reg.X, Y: reg.Y}.ID(cfg.Width), nil)
	default:
		return LatThroughputPoint{}, fmt.Errorf("exp: unsupported kind %v", kind)
	}

	k := sim.NewKernel()
	k.Register(net)
	var latSum, n float64
	net.SetDeliverFunc(func(p *noc.Packet, _ sim.Cycle) {
		latSum += float64(p.TotalLatency())
		n++
	})
	src := &traffic.OpenLoopSource{
		Net: net, Pat: traffic.NewUniform(reg.X, reg.Y, reg.W, reg.H), Tiles: reg.Tiles(cfg.Width),
		Rate: rate, DataPct: 0.5, RNG: sim.NewRNG(seed),
	}
	k.Register(src)
	k.Run(cyclesPerPoint)

	pt := LatThroughputPoint{Rate: rate}
	if n > 0 {
		pt.Latency = latSum / n
		pt.Accepted = n / float64(cyclesPerPoint) / float64(len(src.Tiles))
	}
	pt.Saturated = pt.Latency > satLatency || pt.Accepted < 0.8*rate
	return pt, nil
}

// CharacterizeTopologies renders latency-throughput curves for all subNoC
// topologies under uniform traffic in a 4x4 region. The kind×rate grid is
// flattened into one pool at the given parallelism.
func CharacterizeTopologies(cyclesPerPoint sim.Cycle, seed uint64, parallelism int) (Table, error) {
	rates := []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.12}
	reg := topology.Region{W: 4, H: 4}
	t := Table{
		Title:   "Extra — latency-throughput characterization, uniform traffic, 4x4 subNoC",
		Columns: []string{"rate"},
		Notes: []string{
			"latency in cycles; * marks saturation",
			"cmesh: lowest zero-load latency, earliest saturation (shared injection mux);",
			"torus/tree: higher bisection, later saturation — the trade-off the RL policy rides",
		},
	}
	kinds := []topology.Kind{topology.Mesh, topology.CMesh, topology.Torus, topology.Tree, topology.TorusTree}
	for _, kind := range kinds {
		t.Columns = append(t.Columns, kind.String())
	}
	type cell struct{ kind, rate int }
	var jobs []cell
	for ki := range kinds {
		for ri := range rates {
			jobs = append(jobs, cell{ki, ri})
		}
	}
	pts, err := runner.Map(context.Background(), parallelism, jobs,
		func(_ context.Context, j cell) (LatThroughputPoint, error) {
			// seed + rate index: every topology sees the same stream at a
			// given rate, whatever the pool's order.
			return latThroughputPoint(kinds[j.kind], reg, rates[j.rate], cyclesPerPoint, seed+uint64(j.rate))
		})
	if err != nil {
		return t, err
	}
	curves := make([][]LatThroughputPoint, len(kinds))
	for ki := range kinds {
		curves[ki] = pts[ki*len(rates) : (ki+1)*len(rates)]
	}
	for ri, rate := range rates {
		row := []string{fmt.Sprintf("%.3f", rate)}
		for ki := range kinds {
			p := curves[ki][ri]
			cell := fmt.Sprintf("%.1f", p.Latency)
			if p.Saturated {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
