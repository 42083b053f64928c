// Package power implements the DSENT-style energy model of Section IV-A:
// dynamic energy is event counts (buffer writes/reads, crossbar traversals,
// VA/SA arbitrations, link flit-millimetres, RL inferences) times per-event
// energies; static energy is per-component leakage power times non-gated
// time. The per-event constants are 45 nm values consistent with the
// paper's published component areas and its 11.5 mW/adaptable-link figure;
// since every result in the paper is normalized to the mesh baseline, the
// relative energies are what matter and those follow the event counts
// measured by the simulator.
package power

import (
	"fmt"
	"slices"
	"sort"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// Params holds the technology constants.
type Params struct {
	ClockGHz float64 // core/network clock

	// Dynamic energy per event, picojoules.
	BufferWritePJ     float64 // per flit written (256-bit flit)
	BufferReadPJ      float64 // per flit read at switch traversal
	CrossbarPJ        float64 // per flit crossbar traversal (5x5 baseline)
	CrossbarPerPortPJ float64 // additional per-flit cost per port beyond 5 (high radix)
	ArbitrationPJ     float64 // per VA or SA grant
	LinkPJPerMM       float64 // per flit per millimetre of wire
	MuxPJ             float64 // per flit through an adaptable-router mux
	RLInferencePJ     float64 // per DQN forward pass (one adder + one multiplier serialized)

	// Static (leakage) power, milliwatts.
	RouterStaticBaseMW       float64 // crossbar + allocators of a 5-port router
	RouterStaticPerPortMW    float64 // additional leakage per port beyond 5
	BufferStaticPerFlitMW    float64 // per flit of buffering
	MeshLinkStaticMW         float64 // per active mesh/local link
	AdaptLinkStaticPerMMMW   float64 // per mm of active adaptable segment (paper: 11.5 mW per 8 mm link)
	ExpressLinkStaticPerMMMW float64 // per mm of express wiring (FTBY, shortcut)
}

// DefaultParams returns 45 nm constants.
func DefaultParams() Params {
	return Params{
		ClockGHz:          2.0,
		BufferWritePJ:     1.8,
		BufferReadPJ:      1.2,
		CrossbarPJ:        2.4,
		CrossbarPerPortPJ: 0.3,
		ArbitrationPJ:     0.18,
		LinkPJPerMM:       2.0,
		MuxPJ:             0.15,
		RLInferencePJ:     1200, // 486 ns on one adder + one multiplier (Section V-B.3)

		RouterStaticBaseMW:       0.9,
		RouterStaticPerPortMW:    0.15,
		BufferStaticPerFlitMW:    0.018,
		MeshLinkStaticMW:         0.35,
		AdaptLinkStaticPerMMMW:   11.5 / 8.0,
		ExpressLinkStaticPerMMMW: 0.35,
	}
}

// Breakdown is an energy account in picojoules, split the way Figs. 11-13
// report it.
type Breakdown struct {
	BufferPJ      float64 `json:"bufferPJ"`
	CrossbarPJ    float64 `json:"crossbarPJ"`
	ArbitrationPJ float64 `json:"arbitrationPJ"`
	LinkPJ        float64 `json:"linkPJ"`
	MuxPJ         float64 `json:"muxPJ"`
	RLPJ          float64 `json:"rlPJ"`

	RouterStaticPJ float64 `json:"routerStaticPJ"`
	LinkStaticPJ   float64 `json:"linkStaticPJ"`
}

// DynamicPJ returns total dynamic energy.
func (b Breakdown) DynamicPJ() float64 {
	return b.BufferPJ + b.CrossbarPJ + b.ArbitrationPJ + b.LinkPJ + b.MuxPJ + b.RLPJ
}

// StaticPJ returns total static energy.
func (b Breakdown) StaticPJ() float64 { return b.RouterStaticPJ + b.LinkStaticPJ }

// TotalPJ returns total energy.
func (b Breakdown) TotalPJ() float64 { return b.DynamicPJ() + b.StaticPJ() }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.BufferPJ += o.BufferPJ
	b.CrossbarPJ += o.CrossbarPJ
	b.ArbitrationPJ += o.ArbitrationPJ
	b.LinkPJ += o.LinkPJ
	b.MuxPJ += o.MuxPJ
	b.RLPJ += o.RLPJ
	b.RouterStaticPJ += o.RouterStaticPJ
	b.LinkStaticPJ += o.LinkStaticPJ
}

// String implements fmt.Stringer.
func (b Breakdown) String() string {
	return fmt.Sprintf("dyn=%.1fpJ (buf %.1f xbar %.1f arb %.1f link %.1f mux %.1f rl %.1f) static=%.1fpJ",
		b.DynamicPJ(), b.BufferPJ, b.CrossbarPJ, b.ArbitrationPJ, b.LinkPJ, b.MuxPJ, b.RLPJ, b.StaticPJ())
}

// Meter harvests windowed activity from a network into energy accounts.
type Meter struct {
	P   Params
	net *noc.Network
	// built is the channel list the network was built with and rank the
	// position of each of its source endpoints (see channels).
	built []*noc.Channel
	rank  map[noc.Endpoint]int

	total       Breakdown
	lastCollect map[noc.NodeID]sim.Cycle
}

// NewMeter attaches a meter to a built network: the channels present now
// fix the order link energy is summed in.
func NewMeter(net *noc.Network, p Params) *Meter {
	m := &Meter{P: p, net: net, lastCollect: make(map[noc.NodeID]sim.Cycle)}
	m.built = slices.Clone(net.Channels())
	m.rank = make(map[noc.Endpoint]int, len(m.built))
	for i, ch := range m.built {
		m.rank[ch.From] = i
	}
	return m
}

// channels is the network's channels in the order link energy is summed
// in. A float sum depends on its order, and the network's list order is
// history — a removal moves the last channel into the gap, and a restore
// rebuilds rewired links in another order than the run that rewired them.
// So the list is used as is while it is the one built; once rewired, the
// channels from built source endpoints come in built order and the rest
// after them in (From, To) order, a function of the wiring alone that a
// run and its restore agree on.
func (m *Meter) channels() []*noc.Channel {
	cur := m.net.Channels()
	if slices.Equal(cur, m.built) {
		return cur
	}
	out := slices.Clone(cur)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ra, aok := m.rank[a.From]
		rb, bok := m.rank[b.From]
		switch {
		case aok != bok:
			return aok
		case aok && ra != rb:
			return ra < rb
		case a.From != b.From:
			return endpointLess(a.From, b.From)
		}
		return endpointLess(a.To, b.To)
	})
	return out
}

func endpointLess(a, b noc.Endpoint) bool {
	switch {
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.Router != b.Router:
		return a.Router < b.Router
	case a.Port != b.Port:
		return a.Port < b.Port
	}
	return a.NI < b.NI
}

// CollectRegionAt is CollectRegion with per-region window bookkeeping: the
// elapsed time is measured since the previous CollectRegionAt of the same
// region (keyed by its first tile). Use it when epochs and a final flush
// both collect the same region.
func (m *Meter) CollectRegionAt(tiles []noc.NodeID, now sim.Cycle) RegionWindow {
	key := tiles[0]
	last := m.lastCollect[key]
	m.lastCollect[key] = now
	return m.CollectRegion(tiles, int64(now-last))
}

// RegionWindow is one region-epoch harvest: the energy account plus the
// summed activity the RL state vector derives its network metrics from.
type RegionWindow struct {
	Energy   Breakdown
	Activity noc.RouterActivity
	// NIQueueSum is the sum over cycles and NIs of injection-queue depth.
	NIQueueSum    int64
	ActiveRouters int
	BufferCap     int // total buffer flits across active routers
	Cycles        int64
}

// RouterBufUtil returns mean buffer occupancy as a fraction of capacity.
func (w RegionWindow) RouterBufUtil() float64 {
	if w.Cycles == 0 || w.BufferCap == 0 {
		return 0
	}
	return float64(w.Activity.OccupancySum) / float64(w.Cycles) / float64(w.BufferCap)
}

// InjQueueAvg returns the mean injection-queue depth per NI.
func (w RegionWindow) InjQueueAvg(numNIs int) float64 {
	if w.Cycles == 0 || numNIs == 0 {
		return 0
	}
	return float64(w.NIQueueSum) / float64(w.Cycles) / float64(numNIs)
}

// Throughput returns flits switched per active router per cycle.
func (w RegionWindow) Throughput() float64 {
	if w.Cycles == 0 || w.ActiveRouters == 0 {
		return 0
	}
	return float64(w.Activity.CrossbarTrav) / float64(w.Cycles) / float64(w.ActiveRouters)
}

// CollectRegion harvests the activity windows of the given tiles' routers,
// NIs, and outgoing channels, covering elapsed cycles of wall time, and
// returns the region's energy and activity for the window. Router and NI
// windows reset; call exactly once per window per region (regions must not
// overlap).
func (m *Meter) CollectRegion(tiles []noc.NodeID, elapsedCycles int64) RegionWindow {
	win := RegionWindow{Cycles: elapsedCycles}
	var b Breakdown
	cycleNS := 1.0 / m.P.ClockGHz
	inRegion := make(map[noc.NodeID]bool, len(tiles))
	for _, t := range tiles {
		inRegion[t] = true
	}

	for _, t := range tiles {
		r := m.net.Router(t)
		act := r.TakeActivity()
		win.Activity.BufferWrites += act.BufferWrites
		win.Activity.BufferReads += act.BufferReads
		win.Activity.CrossbarTrav += act.CrossbarTrav
		win.Activity.VAGrants += act.VAGrants
		win.Activity.SAGrants += act.SAGrants
		win.Activity.OccupancySum += act.OccupancySum
		win.Activity.ActiveCycles += act.ActiveCycles
		win.Activity.GatedCycles += act.GatedCycles
		win.Activity.WakeUps += act.WakeUps
		win.Activity.RoutedPackets += act.RoutedPackets
		if !r.Disabled() {
			win.ActiveRouters++
			win.BufferCap += r.BufferCapacity()
		}
		b.BufferPJ += float64(act.BufferWrites)*m.P.BufferWritePJ + float64(act.BufferReads)*m.P.BufferReadPJ
		extraPorts := float64(r.AttachedPorts() - 5)
		if extraPorts < 0 {
			extraPorts = 0
		}
		b.CrossbarPJ += float64(act.CrossbarTrav) * (m.P.CrossbarPJ + extraPorts*m.P.CrossbarPerPortPJ)
		b.ArbitrationPJ += float64(act.VAGrants+act.SAGrants) * m.P.ArbitrationPJ
		b.MuxPJ += float64(act.CrossbarTrav) * m.P.MuxPJ

		// Static: leakage accrues only while not gated/disabled.
		activeNS := float64(act.ActiveCycles) * cycleNS
		staticMW := m.P.RouterStaticBaseMW +
			extraPorts*m.P.RouterStaticPerPortMW +
			float64(r.BufferCapacity())*m.P.BufferStaticPerFlitMW
		b.RouterStaticPJ += staticMW * activeNS // mW × ns = pJ
	}
	for _, t := range tiles {
		na := m.net.NI(t).TakeActivity()
		win.NIQueueSum += na.QueueOccupancySum
	}

	// Channels: dynamic by flit·mm, static by presence, attributed to the
	// source router's region.
	elapsedNS := float64(elapsedCycles) * cycleNS
	for _, ch := range m.channels() {
		src := channelSourceTile(ch)
		if !inRegion[src] {
			continue
		}
		flits := ch.TakeFlits()
		mm := float64(ch.Tiles) // 1 mm tiles
		if mm < 1 {
			mm = 1
		}
		b.LinkPJ += float64(flits) * mm * m.P.LinkPJPerMM

		switch ch.Kind {
		case noc.ChanAdaptable:
			b.LinkStaticPJ += m.P.AdaptLinkStaticPerMMMW * mm * elapsedNS
		case noc.ChanExpress:
			b.LinkStaticPJ += m.P.ExpressLinkStaticPerMMMW * mm * elapsedNS
		default:
			b.LinkStaticPJ += m.P.MeshLinkStaticMW * elapsedNS
		}
	}

	m.total.Add(b)
	win.Energy = b
	return win
}

// AddRLInferences accounts n DQN forward passes to the total (and returns
// their energy so the caller can fold it into a window).
func (m *Meter) AddRLInferences(n int) float64 {
	e := float64(n) * m.P.RLInferencePJ
	m.total.RLPJ += e
	return e
}

// Total returns the accumulated energy across all collected windows.
func (m *Meter) Total() Breakdown { return m.total }

// AvgPowerMW converts a window's energy to average power over the window.
func AvgPowerMW(b Breakdown, elapsedCycles int64, clockGHz float64) float64 {
	if elapsedCycles <= 0 {
		return 0
	}
	ns := float64(elapsedCycles) / clockGHz
	return b.TotalPJ() / ns // pJ/ns == mW
}

// channelSourceTile attributes a channel to a tile for regional accounting.
func channelSourceTile(ch *noc.Channel) noc.NodeID {
	if ch.From.Kind == noc.EndRouter {
		return ch.From.Router
	}
	return ch.From.NI
}
