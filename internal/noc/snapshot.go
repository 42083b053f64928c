package noc

// Checkpoint support for the network: one snapState description per
// record type (see snap.Codec), strung into the net section by
// Network.SnapState. The serialized state is everything the tick loop can
// observe:
//
//   - live packets by value, keyed by ID (arena pointers are never
//     serialized; a decode carves fresh slabs and builds the pktTable that
//     later records resolve their references in);
//   - per-NI injection queues, stream counters, and activity windows;
//   - per-router VC ring contents as (packet ID, seq, visibleAt) triples
//     plus head-of-line routing/allocation state, output credit mirrors,
//     switch holds, gating dynamics, and activity counters;
//   - per-injector stream and credit state;
//   - per-channel in-flight flits and credits, serialized with channels
//     sorted by (From, To) because the membership slice's order is
//     incidental (swap-removal).
//
// The active/woken work lists and the arena shape are deliberately NOT
// serialized: both are derived execution state whose layout depends on the
// tick shard count, and a checkpoint must be byte-identical no matter how
// many shards wrote it. The work lists are a pure function of live state
// (a channel is listed iff Busy, a router iff not parked) and list order
// is unobservable since Tick canonicalizes same-cycle delivery order, so
// a decode just schedules a carve() and the next Tick rebuilds them. The
// arena refills through ordinary delivery recycling; PoolStats after a
// restore count from the restore point (diagnostic state only — nothing
// the simulation computes reads them).
//
// Derived state (occupancy counts, live masks, held masks, resolved
// pointers) is recomputed under c.Decoding(). A decode runs against a
// freshly constructed network whose static wiring (topology, attachments,
// tables) has already been rebuilt by replaying the configuration, and
// validates every count and reference against it, so a corrupted
// checkpoint fails the codec instead of corrupting the simulation.

import (
	"sort"

	"adaptnoc/internal/snap"
)

// PayloadCodec serializes the opaque Packet.Payload values a simulation
// attaches. The system model owns the payload kinds, so it provides the
// codec; pure-traffic networks (zero payloads) need none.
type PayloadCodec interface {
	// PayloadState is one payload's checkpoint record: it encodes
	// *payload, or decodes into it.
	PayloadState(c *snap.Codec, payload *Payload)
}

func (e *Endpoint) snapState(c *snap.Codec) {
	c.Int((*int)(&e.Kind))
	c.Int((*int)(&e.Router))
	c.Int(&e.Port)
	c.Int((*int)(&e.NI))
}

// endpointLess orders endpoints for the canonical channel ordering.
func endpointLess(a, b Endpoint) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	if a.NI != b.NI {
		return a.NI < b.NI
	}
	return a.Port < b.Port
}

func channelLess(a, b *Channel) bool {
	if a.From != b.From {
		return endpointLess(a.From, b.From)
	}
	return endpointLess(a.To, b.To)
}

// sortedChannels returns the live channels in canonical (From, To) order.
func (n *Network) sortedChannels() []*Channel {
	chs := append([]*Channel(nil), n.channels...)
	sort.Slice(chs, func(i, j int) bool { return channelLess(chs[i], chs[j]) })
	return chs
}

// livePackets collects every packet reachable from the network's dynamic
// state, sorted by ID.
func (n *Network) livePackets() []*Packet {
	seen := make(map[uint64]*Packet)
	add := func(p *Packet) {
		if p != nil {
			seen[p.ID] = p
		}
	}
	for _, ni := range n.nis {
		for v := range ni.queues {
			q := &ni.queues[v]
			for i := 0; i < q.len(); i++ {
				add(q.at(i))
			}
		}
	}
	for _, inj := range n.injList {
		for _, st := range inj.streams {
			add(st.cur)
		}
	}
	for _, r := range n.routers {
		r.ForEachBufferedFlit(func(_, _ int, f *Flit) { add(f.Pkt) })
	}
	for _, ch := range n.channels {
		for _, e := range ch.fwd[ch.fwdHead:] {
			add(e.flit.Pkt)
		}
	}
	pkts := make([]*Packet, 0, len(seen))
	for _, p := range seen {
		pkts = append(pkts, p)
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].ID < pkts[j].ID })
	return pkts
}

// Part-mark kinds inside the net section. Marks key each component record
// by a stable identity so the delta encoder aligns records across two
// snapshots (see snap.Part); they never enter the serialized bytes.
const (
	partNetHeader = iota
	partNetPacket
	partNetNI
	partNetRouter
	partNetInjector
	partNetChannel
)

// channelPartKey folds both endpoints into a stable identity that survives
// packets and routers churning around the channel. FNV-1a over the
// endpoint fields, folded to the 56 bits a part key can carry.
func channelPartKey(ch *Channel) uint64 {
	h := uint64(1469598103934665603)
	step := func(v int) {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	for _, e := range []Endpoint{ch.From, ch.To} {
		step(int(e.Kind))
		step(int(e.Router))
		step(e.Port)
		step(int(e.NI))
	}
	return snap.PartKey(partNetChannel, h)
}

// pktTable resolves the packet references a decode meets against the
// packets decoded at the head of the section; nil when encoding. A
// reference that does not resolve fails the codec and yields nil, which
// the caller must not dereference.
type pktTable map[uint64]*Packet

func (t pktTable) packet(c *snap.Codec, id uint64) *Packet {
	p := t[id]
	if p == nil {
		c.Failf("noc: reference to unknown packet %d", id)
	}
	return p
}

// pktRef is a *Packet on the wire: its ID, or 0 for nil where the field
// is optional.
func (t pktTable) pktRef(c *snap.Codec, p **Packet, optional bool) {
	var id uint64
	if !c.Decoding() && *p != nil {
		id = (*p).ID
	}
	if c.U64(&id); c.Decoding() {
		if *p = nil; id != 0 || !optional {
			*p = t.packet(c, id)
		}
	}
}

// flitRef is a *Flit on the wire: (packet ID, seq), resolved to the
// packet's slab flit.
func (t pktTable) flitRef(c *snap.Codec, f **Flit) {
	var id uint64
	var seq int
	if !c.Decoding() {
		id, seq = (*f).Pkt.ID, (*f).Seq
	}
	c.U64(&id)
	c.Int(&seq)
	if !c.Decoding() {
		return
	}
	*f = nil
	switch p := t.packet(c, id); {
	case p == nil:
	case p.flits == nil:
		c.Failf("noc: packet %d has flits in flight but no slab", id)
	case seq < 0 || seq >= len(p.flits):
		c.Failf("noc: packet %d flit %d of %d", id, seq, len(p.flits))
	default:
		*f = &p.flits[seq]
	}
}

// Snapshot writes the network's complete dynamic state: SnapState's
// encoding direction, for callers that hold a bare Writer.
func (n *Network) Snapshot(w *snap.Writer, codec PayloadCodec) error {
	c := snap.Enc(w)
	n.SnapState(&c, codec)
	return c.Err()
}

// SnapState is the network's complete dynamic state. codec serializes
// packet payloads; it may be nil if every live payload is nil. Decoding
// overlays the state onto a freshly built network whose static wiring
// already matches the checkpoint (same topology, attachments, and tables)
// and validates every cross-reference.
func (n *Network) SnapState(c *snap.Codec, codec PayloadCodec) {
	c.Mark(snap.PartKey(partNetHeader, 0))
	c.U64(&n.nextPkt)
	c.I64((*int64)(&n.lastTick))
	c.I64(&n.TotalEnqueued)
	c.I64(&n.TotalDelivered)
	c.I64(&n.TotalFlitsInjected)
	c.I64(&n.TotalFlitsEjected)
	c.I64(&n.stats.Cycles)
	c.I64(&n.stats.RouterTicks)
	c.I64(&n.stats.RouterSkips)
	c.I64(&n.stats.ChannelTicks)
	c.I64(&n.stats.ChannelSkips)

	// Live packets by value. Decoded packets are allocated outside the
	// arena (the arena is execution state, not simulation state); delivery
	// recycles them into pool 0 through the ordinary path.
	var pkts []*Packet
	if !c.Decoding() {
		pkts = n.livePackets()
	}
	nPkts := c.Count(len(pkts), 16)
	var tbl pktTable
	if c.Decoding() {
		tbl = make(pktTable, nPkts)
	}
	for i := 0; i < nPkts; i++ {
		var p *Packet
		if c.Decoding() {
			p = &Packet{}
		} else {
			p = pkts[i]
		}
		c.Mark(snap.PartKey(partNetPacket, p.ID))
		p.snapState(c, n, codec)
		if c.Decoding() && c.Err() == nil {
			if tbl[p.ID] != nil {
				c.Failf("noc: duplicate packet %d", p.ID)
			}
			tbl[p.ID] = p
		}
	}

	// NIs, in tile order.
	c.Len(len(n.nis), "noc: NIs")
	for _, ni := range n.nis {
		c.Mark(snap.PartKey(partNetNI, uint64(ni.ID)))
		ni.snapState(c, tbl)
	}

	// Routers, in tile order.
	c.Len(len(n.routers), "noc: routers")
	for _, r := range n.routers {
		c.Mark(snap.PartKey(partNetRouter, uint64(r.ID)))
		r.snapState(c, tbl)
	}

	// Injectors, in the deterministic injection-list order (which is the
	// sorted (router, port) order and is reproduced by the wiring replay).
	c.Len(len(n.injList), "noc: injectors")
	for _, inj := range n.injList {
		c.Mark(snap.PartKey(partNetInjector, uint64(inj.router.ID)<<8|uint64(inj.port)))
		inj.snapState(c, tbl)
	}

	// Channels in canonical order, with in-flight contents.
	chs := n.sortedChannels()
	c.Len(len(chs), "noc: channels")
	for _, ch := range chs {
		c.Mark(channelPartKey(ch))
		ch.snapState(c, tbl)
	}

	if c.Decoding() {
		// Work lists are not serialized; the carve scheduled here rebuilds
		// them from the restored live state (Busy channels, unparked
		// routers) before the next Tick.
		n.carveDirty = true
	}
}

// snapState is one live packet by value.
func (p *Packet) snapState(c *snap.Codec, n *Network, codec PayloadCodec) {
	c.U64(&p.ID)
	c.Int((*int)(&p.Src))
	c.Int((*int)(&p.Dst))
	c.Int((*int)(&p.Class))
	c.Int((*int)(&p.VNet))
	c.Int(&p.Size)
	c.Int(&p.App)
	c.I64((*int64)(&p.EnqueuedAt))
	c.I64((*int64)(&p.InjectedAt))
	c.I64((*int64)(&p.EjectedAt))
	c.Int(&p.Hops)
	c.Int(&p.datelineClass)
	lastDim := int(p.lastDim)
	c.Int(&lastDim)
	c.Int(&p.rxFlits)
	hasFlits := p.flits != nil
	c.Bool(&hasFlits)
	if c.Decoding() {
		switch nn := NodeID(len(n.nis)); {
		case p.ID == 0 || p.ID > n.nextPkt:
			c.Failf("noc: packet ID %d out of range", p.ID)
		case p.Src < 0 || p.Src >= nn || p.Dst < 0 || p.Dst >= nn:
			c.Failf("noc: packet %d endpoints %d->%d", p.ID, p.Src, p.Dst)
		case p.VNet < 0 || p.VNet >= NumVNets:
			c.Failf("noc: packet %d vnet %d", p.ID, p.VNet)
		case p.Size < 1 || p.Size > 1<<16:
			c.Failf("noc: packet %d size %d", p.ID, p.Size)
		case p.rxFlits < 0 || p.rxFlits > p.Size:
			c.Failf("noc: packet %d reassembled %d/%d flits", p.ID, p.rxFlits, p.Size)
		}
		if hasFlits && c.Err() == nil {
			fillFlits(p, make([]Flit, p.Size))
		}
		p.lastDim = int8(lastDim)
	}

	hasPayload := codec != nil
	c.Bool(&hasPayload)
	switch {
	case hasPayload && codec != nil:
		codec.PayloadState(c, &p.Payload)
	case hasPayload:
		c.Failf("noc: checkpoint carries payloads but no codec is installed")
	case p.Payload != (Payload{}):
		c.Failf("noc: packet %v carries a payload but no codec is installed", p)
	}
}

// snapState is one NI's injection queues, stream counters and activity
// window.
func (ni *NI) snapState(c *snap.Codec, tbl pktTable) {
	for v := range ni.queues {
		q := &ni.queues[v]
		qn := c.Count(q.len(), 1)
		if c.Decoding() {
			*q = pktQueue{}
		}
		for i := 0; i < qn; i++ {
			var p *Packet
			if !c.Decoding() {
				p = q.at(i)
			}
			if tbl.pktRef(c, &p, false); c.Decoding() && p != nil {
				q.push(p)
			}
		}
	}
	if c.Int(&ni.vnRR); c.Decoding() && (ni.vnRR < 0 || ni.vnRR >= NumVNets) {
		c.Failf("noc: NI %d vnet pointer %d", ni.ID, ni.vnRR)
	}
	c.Int(&ni.openStreams)
	c.Int(&ni.rxOpen)
	c.Bool(&ni.gated)
	c.I64(&ni.act.QueueOccupancySum)
	c.I64(&ni.act.EnqueuedPackets)
	c.I64(&ni.act.InjectedPackets)
	c.I64(&ni.act.DeliveredPackets)
	c.I64(&ni.act.DeliveredFlits)
	c.I64(&ni.act.QueuingCycles)
}

// snapState is one injector's stream and credit state.
func (inj *injector) snapState(c *snap.Codec, tbl pktTable) {
	router, port := int(inj.router.ID), inj.port
	c.Int(&router)
	if c.Int(&port); router != int(inj.router.ID) || port != inj.port {
		c.Failf("noc: checkpoint injector (%d,%d), network has (%d,%d)", router, port, inj.router.ID, inj.port)
	}
	if c.Int(&inj.rr); c.Decoding() && len(inj.streams) > 0 && (inj.rr < 0 || inj.rr >= len(inj.streams)) {
		c.Failf("noc: injector (%d,%d) stream pointer %d", router, port, inj.rr)
	}
	c.Len(len(inj.credits), "noc: injector (%d,%d) credit VCs", router, port)
	for i := range inj.credits {
		if c.Int(&inj.credits[i]); c.Decoding() && (inj.credits[i] < 0 || inj.credits[i] > inj.depth) {
			c.Failf("noc: injector (%d,%d) vc %d credits %d", router, port, i, inj.credits[i])
		}
	}
	c.Len(len(inj.streams), "noc: injector (%d,%d) streams", router, port)
	if c.Decoding() {
		clear(inj.owner)
	}
	for _, st := range inj.streams {
		niID := int(st.ni.ID)
		if c.Int(&niID); niID != int(st.ni.ID) {
			c.Failf("noc: injector (%d,%d) stream NI %d, checkpoint %d", router, port, st.ni.ID, niID)
		}
		open := st.cur != nil
		if c.Bool(&open); !open {
			if c.Decoding() {
				st.cur, st.flits, st.nextSeq, st.vcFlat = nil, nil, 0, 0
			}
			continue
		}
		tbl.pktRef(c, &st.cur, false)
		c.Int(&st.nextSeq)
		c.Int(&st.vcFlat)
		if !c.Decoding() {
			continue
		}
		switch p := st.cur; {
		case p == nil:
		case p.flits == nil:
			c.Failf("noc: open stream for packet %d without a slab", p.ID)
		case st.nextSeq < 0 || st.nextSeq > p.Size:
			c.Failf("noc: stream position %d of packet %d (size %d)", st.nextSeq, p.ID, p.Size)
		case st.vcFlat < 0 || st.vcFlat >= len(inj.owner):
			c.Failf("noc: stream VC %d of injector (%d,%d)", st.vcFlat, router, port)
		case inj.owner[st.vcFlat] != nil:
			c.Failf("noc: two streams own injector (%d,%d) vc %d", router, port, st.vcFlat)
		default:
			st.flits = p.flits
			inj.owner[st.vcFlat] = p
		}
	}
}

// snapState is one channel's in-flight flits and credits.
func (ch *Channel) snapState(c *snap.Codec, tbl pktTable) {
	from, to := ch.From, ch.To
	from.snapState(c)
	if to.snapState(c); from != ch.From || to != ch.To {
		c.Failf("noc: checkpoint channel %v->%v, network has %v->%v", from, to, ch.From, ch.To)
	}
	c.I64((*int64)(&ch.lastSend))
	c.Bool(&ch.sentAny)
	c.I64(&ch.FlitsCarried)
	c.I64(&ch.harvested)
	nf := c.Count(len(ch.fwd)-ch.fwdHead, 4)
	if c.Decoding() {
		ch.fwd, ch.fwdHead = ch.fwd[:0], 0
	}
	for i := 0; i < nf; i++ {
		var e inFlight
		if !c.Decoding() {
			e = ch.fwd[ch.fwdHead+i]
		}
		if tbl.flitRef(c, &e.flit); e.flit == nil {
			break
		}
		c.Int(&e.flit.VC)
		c.I64((*int64)(&e.deliverAt))
		if c.Decoding() {
			ch.fwd = append(ch.fwd, e)
		}
	}
	nr := c.Count(len(ch.rev)-ch.revHead, 2)
	if c.Decoding() {
		ch.rev, ch.revHead = ch.rev[:0], 0
	}
	for i := 0; i < nr; i++ {
		e := inFlight{isCredit: true}
		if !c.Decoding() {
			e = ch.rev[ch.revHead+i]
		}
		c.Int(&e.credit.vc)
		c.I64((*int64)(&e.deliverAt))
		if c.Decoding() {
			ch.rev = append(ch.rev, e)
		}
	}
	if c.Decoding() {
		ch.queued = false
	}
}

// snapState is one router's dynamic state; occupancy counts, live masks
// and held masks are recomputed when decoding.
func (r *Router) snapState(c *snap.Codec, tbl pktTable) {
	c.I64((*int64)(&r.tableReadyAt))
	c.Bool(&r.disabled)
	c.Bool(&r.asleep)
	c.I64((*int64)(&r.wakeAt))
	c.I64((*int64)(&r.lastActive))
	c.Bool(&r.parked)
	c.I64((*int64)(&r.parkedAt))
	c.Int(&r.vaRR)
	c.I64(&r.act.BufferWrites)
	c.I64(&r.act.BufferReads)
	c.I64(&r.act.CrossbarTrav)
	c.I64(&r.act.VAGrants)
	c.I64(&r.act.SAGrants)
	c.I64(&r.act.OccupancySum)
	c.I64(&r.act.ActiveCycles)
	c.I64(&r.act.GatedCycles)
	c.I64(&r.act.WakeUps)
	c.I64(&r.act.BufferedPeak)
	c.I64(&r.act.RoutedPackets)

	id := int(r.ID)
	nvc := NumVNets * r.cfg.VCsPerVNet
	// Ports are never removed, so a router the tree topologies grew keeps
	// its extra ports after the subNoC moves on, while restore rebuilds only
	// the current topology: grow it back to the stored count, never past
	// what a reconfiguration can reach, and never shrink it.
	if n := c.Count(len(r.inputs), 1); c.Decoding() && n != len(r.inputs) {
		if n < len(r.inputs) || n > MaxReconfigPorts {
			c.Failf("noc: router %d ports: have %d, checkpoint has %d", id, len(r.inputs), n)
		}
		for len(r.inputs) < n && c.Err() == nil {
			r.addPortLocked()
		}
	}
	if c.Decoding() {
		r.buffered = 0
	}
	for pi := range r.inputs {
		in := &r.inputs[pi]
		if c.Decoding() {
			in.occupied, in.liveMask = 0, 0
		}
		for i := range in.vcs {
			vc := &in.vcs[i]
			depth := c.Count(vc.n, 9)
			if c.Decoding() {
				for vc.n > 0 {
					vc.pop()
				}
				vc.head = 0
				if depth > r.cfg.VCDepth {
					c.Failf("noc: router %d port %d vc %d holds %d flits, depth %d", id, pi, i, depth, r.cfg.VCDepth)
					depth = 0
				}
			}
			for k := 0; k < depth; k++ {
				var f *Flit
				if !c.Decoding() {
					f = vc.ring[(vc.head+k)%len(vc.ring)]
				}
				if tbl.flitRef(c, &f); f == nil {
					break
				}
				c.I64((*int64)(&f.visibleAt))
				if c.Decoding() {
					f.VC = i
					vc.push(f)
				}
			}
			if c.Decoding() && vc.n > 0 {
				in.occupied += vc.n
				r.buffered += vc.n
				in.liveMask |= 1 << uint(i)
			}
			c.Bool(&vc.routed)
			c.Int(&vc.outPort)
			c.Int(&vc.classAfter)
			c.Int(&vc.outVC)
			if !c.Decoding() {
				continue
			}
			if vc.routed && (vc.outPort < 0 || vc.outPort >= len(r.outputs)) {
				c.Failf("noc: router %d vc routed to port %d of %d", id, vc.outPort, len(r.outputs))
			}
			if vc.outVC >= nvc {
				c.Failf("noc: router %d vc allocated downstream vc %d of %d", id, vc.outVC, nvc)
			}
		}
	}

	if c.Decoding() {
		r.heldMask, r.reqMask = 0, 0
	}
	for oi := range r.outputs {
		out := &r.outputs[oi]
		// The attachment record is 1 for an attached output and 0 for an
		// unattached one, or 2 with its arbitration pointer following.
		// attachOut resets every other output field but not rr, so a port
		// a fault or a reconfiguration detached carries its pointer to
		// the re-attach — and so must a restore. 0 and 1 are the bytes of
		// a Bool, so a blob without such a port reads as it always did.
		attach := 0
		switch {
		case out.out != nil:
			attach = 1
		case out.rr != 0:
			attach = 2
		}
		got := c.Count(attach, 0)
		if got > 2 || (got == 1) != (out.out != nil) {
			c.Failf("noc: router %d port %d attachment mismatch (checkpoint %d)", id, oi, got)
		}
		if out.out == nil {
			if got == 2 {
				if c.Int(&out.rr); c.Decoding() && (out.rr <= 0 || out.rr >= len(r.inputs)*nvc) {
					c.Failf("noc: router %d port %d arbitration pointer %d", id, oi, out.rr)
				}
			}
			continue
		}
		c.Len(len(out.credits), "noc: router %d port %d credit VCs", id, oi)
		for i := range out.credits {
			if c.Int(&out.credits[i]); c.Decoding() && (out.credits[i] < 0 || out.credits[i] > out.depth) {
				c.Failf("noc: router %d port %d vc %d credits %d", id, oi, i, out.credits[i])
			}
		}
		for i := range out.owner {
			tbl.pktRef(c, &out.owner[i], true)
		}
		c.Int(&out.holdPort)
		c.Int(&out.holdVC)
		if c.Decoding() && out.holdPort != -1 {
			if out.holdPort < 0 || out.holdPort >= len(r.inputs) || out.holdVC < 0 || out.holdVC >= nvc {
				c.Failf("noc: router %d port %d hold (%d,%d)", id, oi, out.holdPort, out.holdVC)
			}
			if oi < 64 {
				r.heldMask |= 1 << uint(oi)
			}
		}
		if c.Int(&out.rr); c.Decoding() && (out.rr < 0 || out.rr >= len(r.inputs)*nvc) {
			c.Failf("noc: router %d port %d arbitration pointer %d", id, oi, out.rr)
		}
	}
}
