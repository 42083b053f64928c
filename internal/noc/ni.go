package noc

import (
	"fmt"

	"adaptnoc/internal/sim"
)

// NI is a network interface: the per-tile injection/ejection point. Packets
// enqueue into per-vnet FIFO queues of unbounded depth (the queue is where
// the paper's queuing latency accrues), are serialized into flits, and are
// streamed into the serving router's local input port through the injection
// arbiter. Ejected flits are reassembled and handed to the delivery
// callback.
// pktQueue is a head-indexed FIFO: popping (even a few slots past the
// head, see scanDepth) is O(scan depth), not O(queue length) — saturated
// NIs hold very long queues and must not go quadratic.
type pktQueue struct {
	items []*Packet
	head  int
}

func (q *pktQueue) len() int         { return len(q.items) - q.head }
func (q *pktQueue) at(i int) *Packet { return q.items[q.head+i] }
func (q *pktQueue) push(p *Packet)   { q.items = append(q.items, p) }

// take removes the element i slots past the head by shifting the short
// prefix right.
func (q *pktQueue) take(i int) *Packet {
	p := q.items[q.head+i]
	for j := q.head + i; j > q.head; j-- {
		q.items[j] = q.items[j-1]
	}
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return p
}

// NI is a network interface: the per-tile injection/ejection point. (See
// the package comment; queuing latency accrues here.)
type NI struct {
	ID NodeID

	queues [NumVNets]pktQueue
	vnRR   int

	// openStreams counts packets currently being serialized by injectors
	// (a tree root MC has several injection ports draining one NI).
	openStreams int

	// rxOpen counts inbound packets mid-reassembly. The per-packet flit
	// tally lives on the packet itself (Packet.rxFlits), so the NI keeps
	// no per-packet reassembly state at all — ejection does no map work
	// and a long-running simulation's reassembly footprint is exactly the
	// in-flight packet population.
	rxOpen int

	// gated blocks the start of new packet streams during subNoC
	// reconfiguration (a mid-stream packet always finishes first).
	gated bool

	// injs are the injectors serving this NI (the tree root's extra
	// injection ports included), kept by attach and detach so enqueue can
	// wake them without allocating.
	injs []*injector

	// Activity window (injection-port metrics for Table I).
	act NIActivity
}

// SetGated blocks (true) or unblocks (false) new injections from this NI.
func (n *NI) SetGated(g bool) { n.gated = g }

// Gated reports whether new injections are blocked.
func (n *NI) Gated() bool { return n.gated }

// NIActivity is the per-NI window of injection-port metrics.
type NIActivity struct {
	QueueOccupancySum int64 // sum over cycles of queued packets
	EnqueuedPackets   int64
	InjectedPackets   int64
	DeliveredPackets  int64
	DeliveredFlits    int64
	QueuingCycles     int64 // total queuing latency of packets injected in window
}

func newNI(id NodeID) *NI {
	return &NI{ID: id}
}

// QueueLen returns the number of packets waiting (not yet fully streamed).
func (n *NI) QueueLen() int {
	return n.queues[0].len() + n.queues[1].len() + n.openStreams
}

// TakeActivity returns and resets the NI activity window.
func (n *NI) TakeActivity() NIActivity {
	a := n.act
	n.act = NIActivity{}
	return a
}

// enqueue appends a packet to its vnet queue and wakes every injector
// serving the NI: a queued packet is the only work that can reach a parked
// injector. Enqueue runs only in serial phases — between ticks, or in the
// delivery replay at Tick's barrier — never beside a region worker, so the
// wake may write any region's injector set.
func (n *NI) enqueue(p *Packet, now sim.Cycle) {
	p.EnqueuedAt = now
	n.queues[p.VNet].push(p)
	n.act.EnqueuedPackets++
	for _, inj := range n.injs {
		inj.wake()
	}
}

// scanDepth bounds how far past a blocked head the injector may look for a
// startable packet. Distinct VCs are physically distinct queues, so
// shallow out-of-order start avoids head-of-line blocking between flows
// sharing one NI (e.g. two applications' replies at a shared MC) without
// modelling unbounded reordering.
const scanDepth = 8

// takePacket removes and returns the queued packet at (vnet, index).
func (n *NI) takePacket(v VNet, idx int) *Packet {
	p := n.queues[v].take(idx)
	n.vnRR = (int(v) + 1) % NumVNets
	return p
}

// receiveFlit accepts an ejected flit; on tail, the packet is complete.
func (n *NI) receiveFlit(f *Flit, now sim.Cycle, deliver func(*Packet, sim.Cycle)) {
	p := f.Pkt
	if p.Dst != n.ID {
		panic(fmt.Sprintf("noc: flit for %d ejected at NI %d", p.Dst, n.ID))
	}
	if p.rxFlits == 0 {
		n.rxOpen++
	}
	p.rxFlits++
	n.act.DeliveredFlits++
	if f.Tail {
		if p.rxFlits != p.Size {
			panic(fmt.Sprintf("noc: packet %v tail after %d/%d flits", p, p.rxFlits, p.Size))
		}
		n.rxOpen--
		p.EjectedAt = now
		n.act.DeliveredPackets++
		if deliver != nil {
			deliver(p, now)
		}
	}
}

// niStream is one injector's open packet stream from one NI. Stream state
// lives on the injector (not the NI) because several injection ports may
// drain one NI concurrently — the tree's high-fanout root (Section
// II-B.3) gives the memory controller extra injection bandwidth.
type niStream struct {
	ni      *NI
	cur     *Packet
	flits   []Flit // the packet's arena slab; dropped at tail send
	nextSeq int
	vcFlat  int
}

// injector is the injection-side arbiter of one router local input port.
// It models the paper's concentration mux: up to four NIs share the single
// injection port, selected round-robin each cycle; credits mirror the
// router's local input VC buffers.
type injector struct {
	router  *Router
	port    int
	ch      *Channel
	streams []*niStream
	rr      int
	credits []int
	owner   []*Packet
	depth   int
	// primary marks the injector that accounts its NIs' queue-occupancy
	// statistics (secondary root-fanout injectors must not double-count).
	primary bool
	// detached marks an injector removed by DetachLocal; the network's
	// injection list drops marked entries in one order-preserving
	// compaction pass.
	detached bool

	// poolIdx names the shard pool flit slabs are carved from and reg the
	// region whose counters this injector bumps — both assigned by
	// Network.carve so the injection phase touches only its own shard's
	// state.
	poolIdx int
	reg     *shardRegion
	// idx is the injector's position in reg.injs, its bit in reg.injAwake.
	idx int
}

func newInjector(r *Router, port int, ch *Channel, nis []*NI, primary bool) *injector {
	nvc := NumVNets * r.cfg.VCsPerVNet
	inj := &injector{router: r, port: port, ch: ch, depth: r.cfg.VCDepth, primary: primary}
	for _, ni := range nis {
		inj.streams = append(inj.streams, &niStream{ni: ni})
	}
	inj.credits = make([]int, nvc)
	inj.owner = make([]*Packet, nvc)
	for i := range inj.credits {
		inj.credits[i] = inj.depth
	}
	return inj
}

func (inj *injector) receiveCredit(vc int) {
	inj.credits[vc]++
	if inj.credits[vc] > inj.depth {
		panic(fmt.Sprintf("noc: injection credit overflow at router %d vc %d", inj.router.ID, vc))
	}
}

// wake puts the injector back in its region's tick set. An injector not
// yet carved has no region; the pending carve arms it.
func (inj *injector) wake() {
	if inj.reg != nil {
		inj.reg.injAwake[inj.idx>>6] |= 1 << (inj.idx & 63)
	}
}

// tick sends at most one flit from one attached NI into the local port and
// reports whether the injector may park: no open stream and every NI it
// serves empty (QueueLen counts other ports' open streams too). Until the
// next enqueue a parked injector's tick would change nothing — its
// occupancy term is 0 and no stream can start — so skipping it is exact.
func (inj *injector) tick(now sim.Cycle) (idle bool) {
	if inj.primary {
		for _, st := range inj.streams {
			st.ni.act.QueueOccupancySum += int64(st.ni.QueueLen())
		}
	}
	n := len(inj.streams)
	for off := 0; off < n; off++ {
		st := inj.streams[(inj.rr+off)%n]
		if inj.trySend(st, now) {
			inj.rr = (inj.rr + off + 1) % n
			break
		}
	}
	for _, st := range inj.streams {
		if st.cur != nil || st.ni.QueueLen() != 0 {
			return false
		}
	}
	return true
}

// tryStart claims a local-input VC for the next startable queued packet
// (virtual cut-through: the VC must be unowned with room for the whole
// packet; VC policy honoured; dateline-exempt, see allowedInjectionVCs)
// and opens the stream.
func (inj *injector) tryStart(st *niStream) bool {
	ni := st.ni
	for i := 0; i < NumVNets; i++ {
		v := VNet((ni.vnRR + i) % NumVNets)
		depth := ni.queues[v].len()
		if depth > scanDepth {
			depth = scanDepth
		}
		for idx := 0; idx < depth; idx++ {
			p := ni.queues[v].at(idx)
			granted := -1
			inj.router.allowedInjectionVCs(p, func(flat int) bool {
				if inj.owner[flat] == nil && inj.credits[flat] >= p.Size {
					granted = flat
					return false
				}
				return true
			})
			if granted < 0 {
				continue
			}
			st.cur = ni.takePacket(v, idx)
			st.flits = inj.router.net.makeFlits(st.cur, inj.poolIdx)
			st.nextSeq = 0
			st.vcFlat = granted
			inj.owner[granted] = st.cur
			ni.openStreams++
			return true
		}
	}
	return false
}

// trySend attempts to emit the stream's next flit; reports whether a flit
// was sent.
func (inj *injector) trySend(st *niStream, now sim.Cycle) bool {
	if st.cur == nil {
		if st.ni.gated {
			return false
		}
		if !inj.tryStart(st) {
			return false
		}
	}
	if inj.credits[st.vcFlat] <= 0 {
		return false
	}
	f := &st.flits[st.nextSeq]
	f.VC = st.vcFlat
	inj.credits[st.vcFlat]--
	inj.ch.send(f, now)
	st.nextSeq++
	net := inj.router.net
	inj.reg.flitsInjected++
	if f.Head {
		st.cur.InjectedAt = now
		st.ni.act.InjectedPackets++
		st.ni.act.QueuingCycles += int64(st.cur.QueuingLatency())
		if net.tracer != nil {
			net.tracer.PacketInjected(st.cur, inj.router.ID, now)
		}
	}
	if f.Tail {
		inj.owner[st.vcFlat] = nil
		st.cur = nil
		st.flits = nil
		st.ni.openStreams--
	}
	return true
}
