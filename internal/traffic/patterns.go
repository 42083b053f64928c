package traffic

import (
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// Pattern generates destinations for synthetic open-loop traffic, the
// standard NoC characterization workload. It complements the closed-loop
// application profiles: the paper's subNoC topologies trade latency
// against saturation throughput, and open-loop uniform traffic exposes
// exactly that trade-off (see exp.CharacterizeTopologies).
type Pattern interface {
	// Dst returns the destination tile for a packet sourced at src, or
	// ok=false when the pattern gives src no partner (e.g. transpose on
	// the diagonal).
	Dst(src noc.Coord, rng *sim.RNG) (noc.Coord, bool)
	// Name identifies the pattern.
	Name() string
}

// region bounds and helpers shared by the patterns.
type patternRegion struct {
	X, Y, W, H int
}

// Uniform sends every packet to a uniformly random tile of the region.
type Uniform struct{ Region patternRegion }

// NewUniform builds a uniform-random pattern over a region.
func NewUniform(x, y, w, h int) *Uniform {
	return &Uniform{Region: patternRegion{x, y, w, h}}
}

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// Dst implements Pattern.
func (u *Uniform) Dst(src noc.Coord, rng *sim.RNG) (noc.Coord, bool) {
	for tries := 0; tries < 8; tries++ {
		d := noc.Coord{X: u.Region.X + rng.Intn(u.Region.W), Y: u.Region.Y + rng.Intn(u.Region.H)}
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
	Pat     Pattern
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
