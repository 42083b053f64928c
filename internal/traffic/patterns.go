package traffic

import (
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// Uniform generates destinations for synthetic open-loop traffic, the
// standard NoC characterization workload: every packet goes to a uniformly
// random tile of the region. It complements the closed-loop application
// profiles: the paper's subNoC topologies trade latency against
// saturation throughput, and open-loop uniform traffic exposes exactly
// that trade-off (see exp.CharacterizeTopologies).
type Uniform struct{ X, Y, W, H int }

// NewUniform builds a uniform-random pattern over a region.
func NewUniform(x, y, w, h int) *Uniform {
	return &Uniform{x, y, w, h}
}

// Dst returns the destination tile for a packet sourced at src, or
// ok=false when eight draws all hit src.
func (u *Uniform) Dst(src noc.Coord, rng *sim.RNG) (noc.Coord, bool) {
	for tries := 0; tries < 8; tries++ {
		d := noc.Coord{X: u.X + rng.Intn(u.W), Y: u.Y + rng.Intn(u.H)}
		if d != src {
			return d, true
		}
	}
	return src, false
}

// OpenLoopSource injects synthetic packets at a fixed per-tile rate
// (packets per node per cycle), the standard open-loop methodology:
// injection does not throttle with congestion, so queues grow without
// bound past saturation. It implements sim.Ticker.
type OpenLoopSource struct {
	Net     *noc.Network
	Pat     *Uniform
	Tiles   []noc.NodeID
	Rate    float64 // packets per node per cycle
	DataPct float64 // fraction of packets that are multi-flit data
	RNG     *sim.RNG

	Injected int64
}

// Tick implements sim.Ticker.
func (s *OpenLoopSource) Tick(now sim.Cycle) {
	w := s.Net.Cfg.Width
	for _, t := range s.Tiles {
		if !s.RNG.Bernoulli(s.Rate) {
			continue
		}
		src := noc.CoordOf(t, w)
		dst, ok := s.Pat.Dst(src, s.RNG)
		if !ok {
			continue
		}
		class, vnet := noc.ClassCoherence, noc.VNetRequest
		if s.RNG.Bernoulli(s.DataPct) {
			class, vnet = noc.ClassData, noc.VNetReply
		}
		s.Net.Enqueue(s.Net.NewPacket(t, dst.ID(w), class, vnet, 0), now)
		s.Injected++
	}
}
