package noc

import (
	"fmt"

	"adaptnoc/internal/sim"
)

// EndpointKind distinguishes what a channel terminates on.
type EndpointKind int

// Endpoint kinds.
const (
	EndRouter EndpointKind = iota // a router port
	EndNI                         // a network interface (injection/ejection)
)

// Endpoint names one side of a directed channel.
type Endpoint struct {
	Kind EndpointKind
	// Router and Port are valid when Kind == EndRouter.
	Router NodeID
	Port   int
	// NI is valid when Kind == EndNI.
	NI NodeID
}

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	if e.Kind == EndNI {
		return fmt.Sprintf("ni%d", e.NI)
	}
	return fmt.Sprintf("r%d.%s", e.Router, DirPortName(e.Port))
}

// ChannelKind classifies wires for the power and wiring-budget models.
type ChannelKind int

// Channel kinds.
const (
	ChanMesh          ChannelKind = iota // nearest-neighbour mesh link
	ChanAdaptable                        // segment of an adaptable link (high metal)
	ChanConcentration                    // core-to-remote-router concentration link
	ChanExpress                          // static express link (Shortcut, FTBY)
	ChanLocal                            // router <-> resident NI connection
)

// String implements fmt.Stringer.
func (k ChannelKind) String() string {
	switch k {
	case ChanMesh:
		return "mesh"
	case ChanAdaptable:
		return "adaptable"
	case ChanConcentration:
		return "concentration"
	case ChanExpress:
		return "express"
	case ChanLocal:
		return "local"
	default:
		return fmt.Sprintf("chan(%d)", int(k))
	}
}

// inFlight is a flit (or credit) travelling on a channel.
type inFlight struct {
	flit      *Flit
	credit    creditMsg
	isCredit  bool
	deliverAt sim.Cycle
}

// creditMsg returns one buffer slot to the upstream output port.
type creditMsg struct {
	vc int
}

// Channel is a directed wire bundle between two endpoints with a fixed
// latency. Flits travel forward; credits travel backward on the paired
// return wires with the same latency. At most one flit may be accepted per
// cycle (one flit per cycle per 256-bit link).
//
// A channel can be deactivated during fabric reconfiguration; sending on an
// inactive channel panics (the reconfiguration protocol must drain first).
type Channel struct {
	From, To Endpoint
	Kind     ChannelKind
	Latency  int
	Tiles    int // physical span in tile edges, for power/wiring models
	// Intermediate marks wires placed on the intermediate metal layers
	// (M4-M6) instead of the default high layers — slower but a separate
	// wiring budget (Section V-B.2). The combined torus+tree topology
	// puts its tree segments there.
	Intermediate bool

	active bool

	// net and queued drive the owning region's active-channel work list: a
	// channel with nothing in flight is dropped from the per-cycle tick
	// loop and re-queued by the first send or credit (see Network.Tick).
	// net is nil for channels built outside a Network (tests).
	net    *Network
	queued bool

	// shard is the region owning this channel's tick (the sender's shard);
	// boundary marks channels whose endpoints sit in different shards.
	// Boundary channels are ticked serially at the barrier and stay
	// permanently queued so wake() — called from the sending region's
	// parallel phase — is a race-free no-op. Both are assigned by
	// Network.carve.
	shard    int
	boundary bool

	// Resolved endpoints, set when the channel is wired into a network so
	// the per-delivery hot path dispatches through a direct pointer rather
	// than an endpoint-kind switch plus injector map lookup. dstRouter is
	// nil on ejection channels (the NI consumes); srcRouter is nil on
	// injection channels, where srcInj holds the credit sink instead.
	srcRouter *Router
	dstRouter *Router
	srcInj    *injector

	fwd     []inFlight // flits toward To, FIFO by deliverAt
	fwdHead int
	rev     []inFlight // credits toward From
	revHead int

	lastSend sim.Cycle // panic guard: one flit per cycle
	sentAny  bool

	// Flits delivered counter for the power model.
	FlitsCarried int64
	// harvested marks how many of FlitsCarried the power meter has
	// already accounted.
	harvested int64
}

// TakeFlits returns the flits carried since the last harvest.
func (c *Channel) TakeFlits() int64 {
	n := c.FlitsCarried - c.harvested
	c.harvested = c.FlitsCarried
	return n
}

// newChannel constructs an active channel.
func newChannel(from, to Endpoint, kind ChannelKind, latency, tiles int) *Channel {
	if latency < 1 {
		panic("noc: channel latency must be >= 1")
	}
	return &Channel{From: from, To: to, Kind: kind, Latency: latency, Tiles: tiles, active: true}
}

// Active reports whether the channel currently carries traffic.
func (c *Channel) Active() bool { return c.active }

// setActive is used by the fabric during reconfiguration.
func (c *Channel) setActive(v bool) { c.active = v }

// Busy reports whether any flit or credit is still in flight.
func (c *Channel) Busy() bool {
	return len(c.fwd) > c.fwdHead || len(c.rev) > c.revHead
}

// wake puts the channel on its region's work list so the new traffic is
// delivered. Wakes during a tick are buffered and merged at the next tick
// boundary — every payload has >= 1 cycle of latency, so that is early
// enough. Only the owning region's worker can reach a non-queued internal
// channel (its sender lives in the same shard), and boundary channels are
// permanently queued, so the append never races.
func (c *Channel) wake() {
	if c.queued || c.net == nil {
		return
	}
	c.queued = true
	reg := c.net.regions[c.shard]
	reg.wokenCh = append(reg.wokenCh, c)
}

// send places a flit on the channel at cycle now.
func (c *Channel) send(f *Flit, now sim.Cycle) {
	if !c.active {
		panic(fmt.Sprintf("noc: send on inactive channel %v->%v", c.From, c.To))
	}
	if c.sentAny && c.lastSend == now {
		panic(fmt.Sprintf("noc: two flits on channel %v->%v in cycle %d", c.From, c.To, now))
	}
	c.sentAny = true
	c.lastSend = now
	c.fwd = append(c.fwd, inFlight{flit: f, deliverAt: now + sim.Cycle(c.Latency)})
	c.FlitsCarried++
	c.wake()
}

// sendCredit places a credit on the return path at cycle now.
func (c *Channel) sendCredit(vc int, now sim.Cycle) {
	c.rev = append(c.rev, inFlight{isCredit: true, credit: creditMsg{vc: vc}, deliverAt: now + sim.Cycle(c.Latency)})
	c.wake()
}

// deliverFlits pops all flits due at or before now, preserving order. The
// queue is head-indexed and compacts when empty, so steady-state operation
// does not allocate.
func (c *Channel) deliverFlits(now sim.Cycle, fn func(*Flit)) {
	for c.fwdHead < len(c.fwd) && c.fwd[c.fwdHead].deliverAt <= now {
		f := c.fwd[c.fwdHead].flit
		c.fwd[c.fwdHead] = inFlight{}
		c.fwdHead++
		fn(f)
	}
	if c.fwdHead == len(c.fwd) {
		c.fwd = c.fwd[:0]
		c.fwdHead = 0
	}
}

// deliverCredits pops all credits due at or before now.
func (c *Channel) deliverCredits(now sim.Cycle, fn func(vc int)) {
	for c.revHead < len(c.rev) && c.rev[c.revHead].deliverAt <= now {
		vc := c.rev[c.revHead].credit.vc
		c.rev[c.revHead] = inFlight{}
		c.revHead++
		fn(vc)
	}
	if c.revHead == len(c.rev) {
		c.rev = c.rev[:0]
		c.revHead = 0
	}
}
