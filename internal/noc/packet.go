package noc

import (
	"fmt"

	"adaptnoc/internal/sim"
)

// Packet is one network message. A packet is serialized into Size flits at
// the network interface and reassembled at the destination. Latency
// bookkeeping follows the paper's split: queuing latency is time spent
// waiting at the source network interface, network latency is time from
// first entering a router until the tail flit is ejected.
//
// Packets minted by Network.NewPacket are recycled: when the delivery
// callback returns, the packet and its flit slab go back to the network's
// arena (see pool.go) and the same memory may serve a later NewPacket.
// Observers must copy what they need inside the callback and must not
// retain the *Packet.
type Packet struct {
	ID    uint64
	Src   NodeID
	Dst   NodeID
	Class PacketClass
	VNet  VNet
	Size  int // flits
	App   int // owning application index (-1 if none)

	// EnqueuedAt is the cycle the packet entered the NI injection queue.
	EnqueuedAt sim.Cycle
	// InjectedAt is the cycle the head flit entered the first router.
	InjectedAt sim.Cycle
	// EjectedAt is the cycle the tail flit was delivered to the
	// destination NI.
	EjectedAt sim.Cycle

	Hops int // router-to-router hops taken by the head flit

	// Payload carries an opaque reference for the system model (e.g. the
	// memory transaction this packet belongs to). The network never
	// inspects it.
	Payload Payload

	// datelineClass tracks the torus dateline VC class: packets start in
	// class 0 and move to class 1 after crossing the dateline, which
	// breaks the wraparound channel-dependency cycle (Section II-C.3).
	// The class is per ring: it resets when the packet turns into a new
	// dimension (lastDim tracks the dimension of the previous hop).
	datelineClass int
	lastDim       int8

	// flits is the packet's serialized flit slab, one contiguous []Flit
	// carved from the owning network's arena; recycled at delivery.
	// slabPool names the shard pool the slab was carved from so delivery
	// returns it there (0 for serial callers and restored packets; reset
	// by NewPacket's full-literal assignment).
	flits    []Flit
	slabPool int32
	// rxFlits counts flits received by the destination NI; replaces the
	// NI-side reassembly map so ejection does no map work and reassembly
	// state is exactly O(in-flight packets).
	rxFlits int
}

// Payload is the system model's reference riding on a packet: a kind tag
// and one word, both meaningful only to the model that attached them. It
// is a plain value, so attaching one allocates nothing; the zero value is
// "no payload".
type Payload struct {
	Kind uint8
	Ref  uint64
}

// QueuingLatency returns cycles spent waiting at the source NI.
func (p *Packet) QueuingLatency() sim.Cycle { return p.InjectedAt - p.EnqueuedAt }

// NetworkLatency returns cycles spent inside the network.
func (p *Packet) NetworkLatency() sim.Cycle { return p.EjectedAt - p.InjectedAt }

// TotalLatency returns queuing plus network latency.
func (p *Packet) TotalLatency() sim.Cycle { return p.EjectedAt - p.EnqueuedAt }

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %s %d->%d app%d size=%d",
		p.ID, p.VNet, p.Class, p.Src, p.Dst, p.App, p.Size)
}

// Flit is the unit of flow control. Flits of one packet always travel in
// order on the same VC of each hop (virtual cut-through).
//
// Flits are values inside their packet's slab; the *Flit pointers passed
// through channels and router buffers point into that slab and are only
// valid while the packet is in flight. Identity that must outlive delivery
// is (Pkt.ID, Seq), never the pointer.
type Flit struct {
	Pkt  *Packet
	Seq  int // 0-based position within the packet
	Head bool
	Tail bool

	// VC is the virtual channel the flit occupies at its current input
	// port; set on arrival.
	VC int

	// visibleAt is the cycle at which the router pipeline may first act on
	// the flit at its current input port; models the Tr-cycle pipeline.
	visibleAt sim.Cycle
}

// fillFlits initializes a slab of exactly p.Size flits in place and records
// it as the packet's slab for recycling at delivery.
func fillFlits(p *Packet, fs []Flit) []Flit {
	p.lastDim = -1
	p.flits = fs
	for i := range fs {
		fs[i] = Flit{
			Pkt:  p,
			Seq:  i,
			Head: i == 0,
			Tail: i == p.Size-1,
		}
	}
	return fs
}
