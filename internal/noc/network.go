package noc

import (
	"fmt"
	"slices"
	"sort"

	"adaptnoc/internal/sim"
)

// DeliverFunc observes every packet at the cycle its tail flit reaches the
// destination NI.
type DeliverFunc func(p *Packet, now sim.Cycle)

// Network owns the routers, network interfaces, and channels of one chip
// and advances them one cycle per Tick. Topology packages wire it; the
// fabric package rewires it at runtime.
type Network struct {
	Cfg Config

	routers  []*Router
	nis      []*NI
	channels []*Channel

	// injectors is keyed by (router, local port); a router may have
	// several local ports (flattened butterfly gives each terminal its
	// own, Adapt-NoC concentration shares one through the mux). injList
	// mirrors it in deterministic order for the per-cycle tick.
	injectors map[injKey]*injector
	injList   []*injector
	// attach maps each tile to the router currently serving its NI
	// (-1 when unattached).
	attach []NodeID

	onDeliver DeliverFunc
	nextPkt   uint64

	// pools are the per-shard allocation arenas: packet free list plus flit
	// slab arena, recycled at delivery (see pool.go). pools[0] additionally
	// owns every packet header (NewPacket and delivery recycling run
	// serially); the per-shard pools serve only the flit slabs injectors
	// carve in the parallel injection phase. The slice only grows; index
	// into it per call rather than holding a *pool across carves.
	pools []pool

	// ccFlits/ccCredits are CheckCreditInvariant's per-VC tallies, sized to
	// the flat VC count once and reused so a periodic verifier pass does
	// not allocate.
	ccFlits   []int
	ccCredits []int

	// Tick sharding (see shard.go). regions holds one shardRegion per
	// shard, each owning a contiguous band of mesh rows with its own work
	// lists; boundaryCh lists the channels crossing shards, ticked serially
	// at the barrier in canonical order. carveDirty forces a carve() at the
	// next Tick after any change to sharding or wiring. gang is the
	// persistent worker pool (nil when shards == 1); gangNow passes the
	// current cycle to workers without an allocation.
	shards     int
	carveDirty bool
	regions    []*shardRegion
	boundaryCh []*Channel
	gang       *sim.Gang
	gangNow    sim.Cycle
	// pendingAll and rowShard are carve/barrier scratch reused across
	// cycles so the steady-state tick allocates nothing.
	pendingAll []*Packet
	rowShard   []int

	// lastTick is the cycle most recently passed to Tick (-1 before the
	// first). Parked routers reconstruct their counters through it when
	// read (see Router.syncIdle).
	lastTick sim.Cycle

	stats TickStats

	// Observability: optional lifecycle tracer and periodic invariant
	// checker (see trace.go). Both are nil/0 unless explicitly installed;
	// the hot path pays one nil or integer comparison per guarded site.
	tracer      Tracer
	verifier    VerifyFunc
	verifyEvery int64

	// onDrop observes packets a fault made undeliverable; faultGuard arms
	// the routability check in Enqueue (off on the fault-free path, where
	// an unroutable packet is a simulator bug, not a scenario).
	onDrop     DeliverFunc
	faultGuard bool

	// Aggregate counters (whole-run, never reset).
	TotalEnqueued  int64
	TotalDelivered int64
	// TotalDropped / TotalFlitsDropped account packets a fault made
	// undeliverable: at any quiescent point
	// TotalEnqueued == TotalDelivered + TotalDropped + pending queue
	// population. Dropped packets never inject, so the flit conservation
	// counters below are untouched by drops.
	TotalDropped      int64
	TotalFlitsDropped int64
	// Flit-granularity conservation counters: a flit is injected when it
	// leaves an NI on an injection channel and ejected when the
	// destination NI consumes it, so at any cycle boundary
	// TotalFlitsInjected == TotalFlitsEjected + InFlightFlits().
	TotalFlitsInjected int64
	TotalFlitsEjected  int64
}

// TickStats counts executed versus skipped component ticks, proving the
// idle-skip rate of the active work lists.
type TickStats struct {
	Cycles       int64 // network ticks executed
	RouterTicks  int64 // router ticks actually run
	RouterSkips  int64 // router ticks skipped (parked routers)
	ChannelTicks int64 // channel ticks actually run
	ChannelSkips int64 // channel ticks skipped (idle channels)
}

// RouterSkipRate is the fraction of router ticks avoided.
func (s TickStats) RouterSkipRate() float64 {
	if t := s.RouterTicks + s.RouterSkips; t > 0 {
		return float64(s.RouterSkips) / float64(t)
	}
	return 0
}

// ChannelSkipRate is the fraction of channel ticks avoided.
func (s TickStats) ChannelSkipRate() float64 {
	if t := s.ChannelTicks + s.ChannelSkips; t > 0 {
		return float64(s.ChannelSkips) / float64(t)
	}
	return 0
}

// TickStats returns the skip counters accumulated so far.
func (n *Network) TickStats() TickStats { return n.stats }

// NewNetwork creates a W×H network with one 5-port router and one NI per
// tile and no channels. Topology builders add channels, local attachments,
// routing tables, and any extra ports.
func NewNetwork(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{Cfg: cfg, lastTick: -1, shards: 1}
	n.pools = make([]pool, 1)
	nvc := NumVNets * cfg.VCsPerVNet
	n.ccFlits = make([]int, nvc)
	n.ccCredits = make([]int, nvc)
	if testVerifier != nil {
		n.verifier, n.verifyEvery = testVerifier, testVerifyEvery
	}
	count := cfg.NumNodes()
	n.routers = make([]*Router, count)
	n.nis = make([]*NI, count)
	n.injectors = make(map[injKey]*injector)
	n.attach = make([]NodeID, count)
	for i := 0; i < count; i++ {
		n.routers[i] = newRouter(NodeID(i), 5, &n.Cfg, n)
		n.nis[i] = newNI(NodeID(i))
		n.attach[i] = -1
	}
	// Carve immediately so regions[0] exists before the first Tick: wake()
	// targets a region's work list, and tests send on wired channels before
	// ever ticking. Wiring calls mark the partition dirty and the next Tick
	// re-carves.
	n.carve()
	return n
}

// Router returns the router at a tile.
func (n *Network) Router(id NodeID) *Router { return n.routers[id] }

// NI returns a tile's network interface.
func (n *Network) NI(id NodeID) *NI { return n.nis[id] }

// Routers returns the router slice (do not mutate).
func (n *Network) Routers() []*Router { return n.routers }

// NIs returns the NI slice (do not mutate).
func (n *Network) NIs() []*NI { return n.nis }

// Channels returns the live channel slice (do not mutate).
func (n *Network) Channels() []*Channel { return n.channels }

// SetDeliverFunc installs the packet delivery observer.
func (n *Network) SetDeliverFunc(fn DeliverFunc) { n.onDeliver = fn }

// SetDropFunc installs the fault-drop observer, called for every packet
// the network drops because a fault made it undeliverable (before the
// packet is recycled).
func (n *Network) SetDropFunc(fn DeliverFunc) { n.onDrop = fn }

// SetFaultGuard arms (true) or disarms the per-Enqueue routability check.
// The fault engine arms it at its first strike; a fault-free network keeps
// the check off so the steady-state injection path pays nothing.
func (n *Network) SetFaultGuard(on bool) { n.faultGuard = on }

// ServingRouter returns the router currently serving a tile's NI, or -1.
func (n *Network) ServingRouter(tile NodeID) NodeID { return n.attach[tile] }

// Connect wires a directed router-to-router channel and attaches it to the
// named ports, returning the channel. The downstream credit mirror is sized
// from the network configuration.
func (n *Network) Connect(from, to Endpoint, kind ChannelKind, latency, tiles int) *Channel {
	if from.Kind != EndRouter || to.Kind != EndRouter {
		panic("noc: Connect is for router-to-router channels; use AttachLocal for NIs")
	}
	ch := newChannel(from, to, kind, latency, tiles)
	ch.net = n
	src := n.routers[from.Router]
	dst := n.routers[to.Router]
	ch.srcRouter, ch.dstRouter = src, dst
	nvc := NumVNets * n.Cfg.VCsPerVNet
	src.attachOut(from.Port, ch, nvc, n.Cfg.VCDepth)
	dst.attachIn(to.Port, ch)
	n.channels = append(n.channels, ch)
	n.carveDirty = true
	return ch
}

// ConnectBidir wires a mesh-style bidirectional link between two routers on
// complementary ports, with 1-tile span.
func (n *Network) ConnectBidir(a NodeID, aPort int, b NodeID, bPort int, kind ChannelKind, latency, tiles int) (fwd, rev *Channel) {
	fwd = n.Connect(Endpoint{Kind: EndRouter, Router: a, Port: aPort},
		Endpoint{Kind: EndRouter, Router: b, Port: bPort}, kind, latency, tiles)
	rev = n.Connect(Endpoint{Kind: EndRouter, Router: b, Port: bPort},
		Endpoint{Kind: EndRouter, Router: a, Port: aPort}, kind, latency, tiles)
	return fwd, rev
}

// injKey identifies one local attachment point.
type injKey struct {
	router NodeID
	port   int
}

// AttachLocal connects the NIs of the given tiles to a router's local
// port: an injection channel (NIs → local input, arbitrated by the
// concentration mux when several tiles share it) and an ejection channel
// (local output → NIs). latency covers the concentration-link distance;
// 1 for a resident NI.
func (n *Network) AttachLocal(router NodeID, tiles []NodeID, latency int) {
	n.AttachLocalPort(router, PortLocal, tiles, latency)
}

// AttachLocalPort is AttachLocal on an explicit local port, letting
// high-radix routers (flattened butterfly) give each terminal its own
// injection/ejection port.
func (n *Network) AttachLocalPort(router NodeID, port int, tiles []NodeID, latency int) {
	n.attachLocalPort(router, port, tiles, latency, true)
}

// AttachInjectionPort adds an injection-only local port for tiles already
// attached to this router — the tree root's extra injection bandwidth
// ("maximize the fanout of the root router ... to provide sufficient
// injection bandwidth", Section II-B.3). No ejection channel is wired and
// the port never appears in routing tables.
func (n *Network) AttachInjectionPort(router NodeID, port int, tiles []NodeID, latency int) {
	n.attachLocalPort(router, port, tiles, latency, false)
}

func (n *Network) attachLocalPort(router NodeID, port int, tiles []NodeID, latency int, withEjection bool) {
	r := n.routers[router]
	kind := ChanLocal
	if len(tiles) > 1 {
		kind = ChanConcentration
	}
	injCh := newChannel(
		Endpoint{Kind: EndNI, NI: router, Port: port},
		Endpoint{Kind: EndRouter, Router: router, Port: port},
		kind, latency, 1)
	injCh.net = n
	injCh.dstRouter = r
	n.channels = append(n.channels, injCh)
	r.attachIn(port, injCh)
	if withEjection {
		ejCh := newChannel(
			Endpoint{Kind: EndRouter, Router: router, Port: port},
			Endpoint{Kind: EndNI, NI: router, Port: port},
			kind, latency, 1)
		ejCh.net = n
		ejCh.srcRouter = r
		n.channels = append(n.channels, ejCh)
		nvc := NumVNets * n.Cfg.VCsPerVNet
		r.attachOut(port, ejCh, nvc, n.Cfg.VCDepth)
	}

	nis := make([]*NI, len(tiles))
	for i, t := range tiles {
		nis[i] = n.nis[t]
		n.attach[t] = router
	}
	inj := newInjector(r, port, injCh, nis, withEjection)
	for _, ni := range nis {
		ni.injs = append(ni.injs, inj)
	}
	injCh.srcInj = inj
	n.injectors[injKey{router, port}] = inj
	n.carveDirty = true
	n.injList = append(n.injList, inj)
	sort.Slice(n.injList, func(i, j int) bool {
		a, b := n.injList[i], n.injList[j]
		if a.router.ID != b.router.ID {
			return a.router.ID < b.router.ID
		}
		return a.port < b.port
	})
}

// DetachLocal removes every NI attachment of a router (used before
// re-clustering during reconfiguration). Injection streams must be idle.
//
// Detached injectors are marked and the deterministic injection list is
// compacted once, order-preserving, after all ports are processed — a wide
// reconfiguration wave detaching k of n injectors costs O(n + k) instead
// of the O(k·n) of per-injector shift removal.
func (n *Network) DetachLocal(router NodeID) {
	r := n.routers[router]
	detached := 0
	for port := 0; port < r.NumPorts(); port++ {
		key := injKey{router, port}
		inj := n.injectors[key]
		if inj == nil {
			continue
		}
		for _, st := range inj.streams {
			if st.cur != nil {
				panic(fmt.Sprintf("noc: detaching NI %d mid-packet", st.ni.ID))
			}
			n.attach[st.ni.ID] = -1
			st.ni.injs = slices.DeleteFunc(st.ni.injs, func(x *injector) bool { return x == inj })
		}
		if inj.ch.Busy() {
			panic(fmt.Sprintf("noc: detaching router %d local port %d with traffic in flight", router, port))
		}
		n.removeChannel(inj.ch)
		if ej := r.OutputChannel(port); ej != nil {
			n.removeChannel(ej)
			r.attachOut(port, nil, 0, 0)
		}
		r.attachIn(port, nil)
		delete(n.injectors, key)
		inj.detached = true
		detached++
	}
	if detached == 0 {
		return
	}
	keep := n.injList[:0]
	for _, x := range n.injList {
		if !x.detached {
			keep = append(keep, x)
		}
	}
	for i := len(keep); i < len(n.injList); i++ {
		n.injList[i] = nil
	}
	n.injList = keep
	n.carveDirty = true
}

// DisconnectOut detaches and removes the channel on a router output port.
// The channel must be drained.
func (n *Network) DisconnectOut(router NodeID, port int) {
	r := n.routers[router]
	ch := r.OutputChannel(port)
	if ch == nil {
		return
	}
	if ch.Busy() {
		panic(fmt.Sprintf("noc: disconnecting busy channel %v->%v", ch.From, ch.To))
	}
	if ch.To.Kind == EndRouter {
		n.routers[ch.To.Router].attachIn(ch.To.Port, nil)
	}
	r.attachOut(port, nil, 0, 0)
	n.removeChannel(ch)
}

// removeChannel deactivates and drops a channel from the live set. If the
// channel sits on an active work list it is NOT spliced out eagerly (an
// O(active) shift per removal): deactivation plus the carve the removal
// schedules is enough — the re-carve rebuilds every region's work list
// from live state before the next Tick. A removed channel is drained by
// precondition, so dropping it delivers nothing.
//
// The n.channels membership slice is unordered (it only feeds sums and
// invariant sweeps), so swap-removal there is O(1) and stays.
func (n *Network) removeChannel(ch *Channel) {
	ch.setActive(false)
	n.carveDirty = true
	for i, c := range n.channels {
		if c == ch {
			n.channels[i] = n.channels[len(n.channels)-1]
			n.channels[len(n.channels)-1] = nil
			n.channels = n.channels[:len(n.channels)-1]
			return
		}
	}
}

// NewPacket returns a packet with the configured size for its class, drawn
// from the network's arena. The packet is valid until its delivery
// callback returns, at which point it is recycled; see Packet.
func (n *Network) NewPacket(src, dst NodeID, class PacketClass, vnet VNet, app int) *Packet {
	n.nextPkt++
	size := n.Cfg.CtrlFlits
	if class == ClassData {
		size = n.Cfg.DataFlits
	}
	p := n.pools[0].getPacket()
	// Full-literal assignment resets every pooled field (timestamps, hops,
	// payload, dateline state, reassembly count, slab reference and its
	// owning pool).
	*p = Packet{
		ID: n.nextPkt, Src: src, Dst: dst,
		Class: class, VNet: vnet, Size: size, App: app,
	}
	return p
}

// makeFlits serializes a packet into a pooled slab from pool poolIdx and
// tags the packet with the owning pool so delivery recycles the slab where
// it came from. Injectors pass their shard's pool (the only allocation on
// the parallel injection phase); serial callers use pool 0.
func (n *Network) makeFlits(p *Packet, poolIdx int) []Flit {
	if p.Size < 1 {
		panic("noc: packet with no flits")
	}
	p.slabPool = int32(poolIdx)
	return fillFlits(p, n.pools[poolIdx].getSlab(p.Size))
}

// Enqueue submits a packet at its source NI at cycle now. Under an armed
// fault guard, a packet the damaged topology cannot deliver is dropped
// (and accounted) instead of queued.
func (n *Network) Enqueue(p *Packet, now sim.Cycle) {
	if p.Src == p.Dst {
		panic(fmt.Sprintf("noc: self-addressed packet %v", p))
	}
	if n.faultGuard && !n.routable(p) {
		n.TotalEnqueued++
		n.dropPacket(p, now)
		return
	}
	n.nis[p.Src].enqueue(p, now)
	n.TotalEnqueued++
	if n.tracer != nil {
		n.tracer.PacketEnqueued(p, now)
	}
}

// routable reports whether the current topology can deliver p: both
// endpoints must have attached NIs and the source's serving router must
// hold a route for the destination on the packet's vnet. The fault
// engine's healed tables are closed under next-hop (a spanning tree per
// component, or a pruned-to-fixpoint static table), so a valid source
// entry implies a complete path.
func (n *Network) routable(p *Packet) bool {
	return n.routableTo(p.Src, p.Dst, p.VNet)
}

func (n *Network) routableTo(src, dst NodeID, v VNet) bool {
	s, d := n.attach[src], n.attach[dst]
	if s < 0 || d < 0 {
		return false
	}
	tbl := n.routers[s].Table(v)
	if tbl == nil {
		return false
	}
	_, ok := tbl.Lookup(dst)
	return ok
}

// Deliverable reports whether an Enqueue of a src→dst packet on vnet v
// would be accepted rather than fault-dropped: with no armed fault guard
// every packet queues; under a guard the damaged topology must hold a
// route. Traffic sources consult this so a packet doomed to drop at
// injection never occupies an outstanding-request slot.
func (n *Network) Deliverable(src, dst NodeID, v VNet) bool {
	return !n.faultGuard || n.routableTo(src, dst, v)
}

// dropPacket accounts for and recycles a packet a fault made
// undeliverable. Dropped packets were never injected, so they own no flit
// slab and the flit conservation counters stay untouched. Serial phases
// only (drops happen at Enqueue and at the fault engine's quiescent apply
// points, never inside the parallel tick phases).
func (n *Network) dropPacket(p *Packet, now sim.Cycle) {
	n.TotalDropped++
	n.TotalFlitsDropped += int64(p.Size)
	if n.onDrop != nil {
		n.onDrop(p, now)
	}
	if p.flits != nil {
		n.pools[p.slabPool].putSlab(p.flits)
		p.flits = nil
	}
	p.Payload = Payload{}
	n.pools[0].putPacket(p)
}

// DropUnroutable sweeps every NI injection queue and drops queued packets
// the current (post-fault) topology can no longer deliver, returning the
// number dropped. The fault engine calls it after applying damage, on a
// quiescent network.
func (n *Network) DropUnroutable(now sim.Cycle) int {
	dropped := 0
	for _, ni := range n.nis {
		for v := range ni.queues {
			q := &ni.queues[v]
			keep := q.items[q.head:q.head]
			for i := q.head; i < len(q.items); i++ {
				p := q.items[i]
				if n.routable(p) {
					keep = append(keep, p)
					continue
				}
				n.dropPacket(p, now)
				dropped++
			}
			q.items = q.items[:q.head+len(keep)]
		}
	}
	return dropped
}

// LocalAttachment describes one local port of a router as
// AttachLocalPort/AttachInjectionPort configured it, so the fault engine
// can detach a failed router and later re-attach an identical wiring.
type LocalAttachment struct {
	Port         int
	Tiles        []NodeID
	Latency      int
	WithEjection bool
}

// LocalAttachments returns a router's local attachments in port order.
func (n *Network) LocalAttachments(router NodeID) []LocalAttachment {
	var out []LocalAttachment
	r := n.routers[router]
	for port := 0; port < r.NumPorts(); port++ {
		inj := n.injectors[injKey{router, port}]
		if inj == nil {
			continue
		}
		la := LocalAttachment{Port: port, Latency: inj.ch.Latency, WithEjection: inj.primary}
		for _, st := range inj.streams {
			la.Tiles = append(la.Tiles, st.ni.ID)
		}
		out = append(out, la)
	}
	return out
}

// Tick advances the whole network one cycle in four phases:
//
//  1. Region channel phase (parallel): each shard ticks its internal
//     channels — both endpoints inside the shard — against its own work
//     list. Tail-flit deliveries are buffered per region instead of
//     running the delivery callback immediately.
//  2. Barrier (serial): boundary channels (endpoints in different shards)
//     tick in canonical (From, To) order, then the buffered deliveries of
//     all regions run through the delivery callback in canonical
//     destination order.
//  3. Region router phase (parallel): each shard ticks its routers and
//     then its injectors, in deterministic per-region order.
//  4. Merge (serial): per-region counters fold into the network totals
//     and the periodic verifier runs.
//
// All cross-component paths have at least one cycle of latency and a tile
// ejects at most one tail flit per cycle, so the only in-cycle order the
// simulation can observe is same-cycle delivery-callback order — which the
// barrier canonicalizes by sorting on destination. That makes the results
// (and checkpoint blobs) byte-identical for every shard count, including
// the serial shards == 1 path, which runs the same four phases on one
// region covering the whole chip.
//
// Only the active work lists are walked: a channel with nothing in flight
// and a router that parked itself (disabled, asleep, or empty) are skipped
// entirely, which is the common case in drained or power-gated regions.
// Skipped components stay externally indistinguishable from ticked ones —
// channels hold no per-cycle state, and parked routers reconstruct their
// activity counters on demand (Router.syncIdle).
func (n *Network) Tick(now sim.Cycle) {
	if n.carveDirty {
		n.carve()
	}
	n.lastTick = now
	n.stats.Cycles++

	// Tracing wants globally ordered callbacks, so a traced network runs
	// its regions sequentially on this goroutine; the state evolution is
	// identical (regions only touch state they own).
	parallel := n.gang != nil && n.tracer == nil
	n.gangNow = now

	// Phase 1: internal channels, per region.
	if parallel {
		n.gang.Kick(gangPhaseChannels)
		n.regionChannels(n.regions[0], now)
		n.gang.Wait()
	} else {
		for _, reg := range n.regions {
			n.regionChannels(reg, now)
		}
	}

	// Phase 2 (barrier): boundary channels in canonical order, then the
	// canonical delivery replay.
	var boundaryTicked int64
	for _, ch := range n.boundaryCh {
		if !ch.active || !ch.Busy() {
			continue
		}
		n.tickChannel(ch, now, nil)
		boundaryTicked++
	}
	n.replayDeliveries(now)

	// Phase 3: routers then injectors, per region.
	if parallel {
		n.gang.Kick(gangPhaseRouters)
		n.regionRouters(n.regions[0], now)
		n.gang.Wait()
	} else {
		for _, reg := range n.regions {
			n.regionRouters(reg, now)
		}
	}

	// Phase 4: fold the per-region counters into the network totals.
	tickedCh := boundaryTicked
	var tickedR, injected, ejected int64
	for _, reg := range n.regions {
		tickedCh += reg.tickedCh
		tickedR += reg.tickedR
		injected += reg.flitsInjected
		ejected += reg.flitsEjected
		reg.tickedCh, reg.tickedR, reg.flitsInjected, reg.flitsEjected = 0, 0, 0, 0
	}
	n.stats.ChannelTicks += tickedCh
	n.stats.ChannelSkips += int64(len(n.channels)) - tickedCh
	n.stats.RouterTicks += tickedR
	n.stats.RouterSkips += int64(len(n.routers)) - tickedR
	n.TotalFlitsInjected += injected
	n.TotalFlitsEjected += ejected

	if n.verifyEvery > 0 && int64(now)%n.verifyEvery == 0 {
		if err := n.verifier(n, now); err != nil {
			panic(fmt.Sprintf("noc: invariant violated at cycle %d: %v", now, err))
		}
	}
}

// replayDeliveries runs the delivery callbacks buffered by the region
// channel phase, in canonical order. Each tile sits on exactly one
// ejection channel and a channel delivers at most one flit per cycle, so
// at most one packet per destination tile completes per cycle — sorting by
// destination is a total order, independent of region count and work-list
// order. The sort is a hand-written insertion sort: the list is tiny (a
// handful of same-cycle deliveries) and sort.Slice's interface conversion
// would allocate on the steady-state path.
func (n *Network) replayDeliveries(now sim.Cycle) {
	pend := n.pendingAll[:0]
	for _, reg := range n.regions {
		pend = append(pend, reg.pending...)
		for i := range reg.pending {
			reg.pending[i] = nil
		}
		reg.pending = reg.pending[:0]
	}
	for i := 1; i < len(pend); i++ {
		p := pend[i]
		j := i - 1
		for j >= 0 && pend[j].Dst > p.Dst {
			pend[j+1] = pend[j]
			j--
		}
		pend[j+1] = p
	}
	for i, p := range pend {
		pend[i] = nil
		n.deliver(p, now)
	}
	n.pendingAll = pend[:0]
}

// tickChannel delivers due credits and flits. Endpoint targets were
// resolved to direct pointers when the channel was wired (srcRouter /
// srcInj / dstRouter), so the per-delivery path does no endpoint switch
// and no injector map lookup. reg is the region running the tick and
// receives the ejection side effects (flit counter, buffered delivery);
// it is nil for boundary channels, which are router-to-router by
// construction and never reach the ejection branch.
func (n *Network) tickChannel(ch *Channel, now sim.Cycle, reg *shardRegion) {
	ch.deliverCredits(now, func(vc int) {
		if ch.srcRouter != nil {
			ch.srcRouter.receiveCredit(ch.From.Port, vc, now)
			return
		}
		if ch.srcInj == nil {
			panic("noc: credit for detached injector")
		}
		ch.srcInj.receiveCredit(vc)
	})
	ch.deliverFlits(now, func(f *Flit) {
		if n.tracer != nil {
			n.tracer.LinkTraversed(ch, f, now-sim.Cycle(ch.Latency), now)
		}
		if ch.dstRouter != nil {
			ch.dstRouter.receiveFlit(ch.To.Port, f, now)
			// Credit returns to the sender as the buffer slot is consumed
			// downstream; the router emits it at switch traversal via the
			// input channel (see Router.traverse -> creditUpstream).
			return
		}
		// Ejection: the NI consumes the flit immediately and the buffer
		// slot frees right away. The tail-flit delivery callback is
		// deferred to the barrier (reg.deliver buffers the packet) so
		// same-cycle deliveries run in canonical order there.
		dst := f.Pkt.Dst
		if n.attach[dst] != ch.From.Router {
			panic(fmt.Sprintf("noc: packet %v ejected at router %d but tile attached to %d",
				f.Pkt, ch.From.Router, n.attach[dst]))
		}
		ch.sendCredit(f.VC, now)
		reg.flitsEjected++
		if n.tracer != nil {
			n.tracer.FlitEjected(dst, f, now)
		}
		n.nis[dst].receiveFlit(f, now, reg.deliver)
	})
}

func (n *Network) deliver(p *Packet, now sim.Cycle) {
	n.TotalDelivered++
	if n.tracer != nil {
		n.tracer.PacketDelivered(p, now)
	}
	if n.onDeliver != nil {
		n.onDeliver(p, now)
	}
	// The packet is dead: every flit was ejected (the NI checked the tail
	// count) and every observer has run. Recycle the flit slab into the
	// pool that carved it and the packet into the serial pool; both may be
	// reused by a later NewPacket.
	if p.flits != nil {
		n.pools[p.slabPool].putSlab(p.flits)
		p.flits = nil
	}
	p.Payload = Payload{}
	n.pools[0].putPacket(p)
}

// InFlightFlits counts flits buffered in routers or travelling on channels.
func (n *Network) InFlightFlits() int {
	c := 0
	for _, r := range n.routers {
		c += r.Occupancy()
	}
	for _, ch := range n.channels {
		c += len(ch.fwd) - ch.fwdHead
	}
	return c
}

// ForEachInFlightFlit visits every flit currently buffered in a router
// input VC or travelling on a channel, in deterministic order. Used by the
// invariant checker to validate per-flit timestamps and VC FIFO ordering.
func (n *Network) ForEachInFlightFlit(fn func(f *Flit)) {
	for _, r := range n.routers {
		r.ForEachBufferedFlit(func(port, vc int, f *Flit) { fn(f) })
	}
	for _, ch := range n.channels {
		for _, e := range ch.fwd[ch.fwdHead:] {
			fn(e.flit)
		}
	}
}

// Quiescent reports whether no flit is buffered or in flight anywhere and
// no NI is mid-stream (injection queues may still hold whole packets).
func (n *Network) Quiescent() bool {
	if n.InFlightFlits() != 0 {
		return false
	}
	for _, ni := range n.nis {
		if ni.openStreams != 0 {
			return false
		}
	}
	return true
}

// PendingPackets counts packets queued at NIs but not yet fully injected.
func (n *Network) PendingPackets() int {
	c := 0
	for _, ni := range n.nis {
		c += ni.QueueLen()
	}
	return c
}

// CheckCreditInvariant validates, for every live channel, that upstream
// credits + downstream buffered flits + flits/credits in flight equal the
// buffer depth for every VC. Router-to-router channels check against the
// downstream input VCs; injection channels against the serving router's
// local input VCs (the injector holds the credit mirror); ejection
// channels have no downstream buffer (the NI consumes immediately), so
// credits plus in-flight entries must make up the full depth. Holds at any
// cycle boundary, not just at quiescence.
func (n *Network) CheckCreditInvariant() error {
	// Per-VC in-flight tallies reuse the network's scratch slices (sized to
	// the flat VC count at construction) so the periodic verifier sweep
	// allocates nothing.
	inFlightFlits := n.ccFlits
	inFlightCredits := n.ccCredits
	for _, ch := range n.channels {
		for vc := range inFlightFlits {
			inFlightFlits[vc] = 0
			inFlightCredits[vc] = 0
		}
		for _, e := range ch.fwd[ch.fwdHead:] {
			inFlightFlits[e.flit.VC]++
		}
		for _, e := range ch.rev[ch.revHead:] {
			inFlightCredits[e.credit.vc]++
		}
		switch {
		case ch.From.Kind == EndRouter && ch.To.Kind == EndRouter:
			up := &n.routers[ch.From.Router].outputs[ch.From.Port]
			down := &n.routers[ch.To.Router].inputs[ch.To.Port]
			if up.out != ch {
				continue
			}
			for vc := range up.credits {
				total := up.credits[vc] + down.vcs[vc].len() + inFlightFlits[vc] + inFlightCredits[vc]
				if total != up.depth {
					return fmt.Errorf("noc: credit invariant broken on %v->%v vc %d: %d+%d+%d+%d != %d",
						ch.From, ch.To, vc, up.credits[vc], down.vcs[vc].len(),
						inFlightFlits[vc], inFlightCredits[vc], up.depth)
				}
			}
		case ch.From.Kind == EndNI && ch.To.Kind == EndRouter:
			inj := n.injectors[injKey{ch.From.NI, ch.From.Port}]
			down := &n.routers[ch.To.Router].inputs[ch.To.Port]
			if inj == nil || down.in != ch {
				continue
			}
			for vc := range inj.credits {
				total := inj.credits[vc] + down.vcs[vc].len() + inFlightFlits[vc] + inFlightCredits[vc]
				if total != inj.depth {
					return fmt.Errorf("noc: injection credit invariant broken on %v->%v vc %d: %d+%d+%d+%d != %d",
						ch.From, ch.To, vc, inj.credits[vc], down.vcs[vc].len(),
						inFlightFlits[vc], inFlightCredits[vc], inj.depth)
				}
			}
		case ch.From.Kind == EndRouter && ch.To.Kind == EndNI:
			up := &n.routers[ch.From.Router].outputs[ch.From.Port]
			if up.out != ch {
				continue
			}
			for vc := range up.credits {
				total := up.credits[vc] + inFlightFlits[vc] + inFlightCredits[vc]
				if total != up.depth {
					return fmt.Errorf("noc: ejection credit invariant broken on %v->%v vc %d: %d+%d+%d != %d",
						ch.From, ch.To, vc, up.credits[vc],
						inFlightFlits[vc], inFlightCredits[vc], up.depth)
				}
			}
		}
	}
	return nil
}
