package noc

import (
	"fmt"
	"math/bits"

	"adaptnoc/internal/sim"
)

// vcState is one virtual channel at one input port. Flits queue in FIFO
// order in a fixed ring (depth = VCDepth); with virtual cut-through a
// downstream VC is allocated to a whole packet before its head traverses,
// so packets never interleave within a VC even though several complete
// packets may queue back to back.
type vcState struct {
	ring []*Flit // circular buffer, len == VCDepth
	head int
	n    int

	// Per-packet routing/allocation state for the packet at the head of
	// the queue.
	routed     bool
	outPort    int
	classAfter int // dateline class downstream of this hop
	outVC      int // -1 until VA succeeds
}

func (v *vcState) front() *Flit {
	if v.n == 0 {
		return nil
	}
	return v.ring[v.head]
}

func (v *vcState) push(f *Flit) {
	i := v.head + v.n
	if i >= len(v.ring) {
		i -= len(v.ring)
	}
	v.ring[i] = f
	v.n++
}

func (v *vcState) pop() *Flit {
	f := v.ring[v.head]
	v.ring[v.head] = nil
	v.head++
	if v.head == len(v.ring) {
		v.head = 0
	}
	v.n--
	return f
}

func (v *vcState) len() int { return v.n }

func (v *vcState) resetHeadState() {
	v.routed = false
	v.outPort = -1
	v.classAfter = 0
	v.outVC = -1
}

// InputPort is one router input with its VC buffers and the (single,
// mux-selected) incoming channel currently attached. occupied counts
// buffered flits across the port's VCs so empty ports skip the pipeline.
type InputPort struct {
	index    int
	in       *Channel
	vcs      []vcState
	occupied int
	// liveMask has bit i set while vcs[i] buffers at least one flit, so the
	// pipeline visits occupied VCs directly (ascending bit order == the
	// slice order a full scan would use, so arbitration is unchanged).
	// Maintained only for the first 64 VCs; configurations beyond that fall
	// back to the full scan (see stagePipeline).
	liveMask uint64
}

// OutputPort is one router output: the attached outgoing channel, credit
// counters mirroring the downstream buffer, per-VC packet ownership for
// virtual cut-through allocation, and the switch-holding state that keeps
// an output dedicated to one packet from head to tail.
type OutputPort struct {
	index   int
	out     *Channel
	credits []int
	owner   []*Packet // downstream VC ownership (nil = free)
	depth   int

	// deadVC masks flat VCs a fault took out of service: the VC allocator
	// never grants a masked VC. Zero on the fault-free path, so the hot
	// loop pays one integer test.
	deadVC uint64

	// Switch hold: while a packet streams, (holdPort, holdVC) identify the
	// input VC that owns this output. holdPort == -1 means free.
	holdPort, holdVC int

	rr int // round-robin pointer for switch allocation
}

func (o *OutputPort) holdFree() bool { return o.holdPort == -1 }

// VCPolicy restricts which VCs a packet may be allocated (OSCAR-style
// application-aware VC partitioning). nil permits every VC of the packet's
// virtual network.
type VCPolicy func(p *Packet, vnet VNet, vcWithinVNet int) bool

// Router is a single adaptable router: a set of ports whose channel
// attachments are selected by (modelled) muxes, per-vnet reconfigurable
// routing tables, a VC-buffered virtual cut-through pipeline with RC, VA,
// SA and ST stages, and optional runtime power gating.
//
// Activity counters feed the power model and the RL state vector; they are
// windowed (read-and-reset) by the epoch controller.
type Router struct {
	ID  NodeID
	cfg *Config
	net *Network

	// Ports are stored by value so a router's port state is one contiguous
	// slab (the pipeline touches every occupied port each cycle). Element
	// pointers are taken only transiently: AddPort may relocate the slices.
	inputs  []InputPort
	outputs []OutputPort

	tables       [NumVNets]*RoutingTable
	tableReadyAt sim.Cycle // RC stalls before this cycle (Ts setup window)

	// useDateline enables torus dateline VC classing per virtual network
	// (the combined torus+tree topology runs a torus request network and
	// a tree reply network, only the former needing dateline classes).
	useDateline [NumVNets]bool
	disabled    bool // fabric-level deep power-off (cmesh idle routers)

	policy VCPolicy

	// Runtime power gating (FTBY_PG): a sleeping router delays the
	// visibility of arriving flits by the wake-up latency.
	gateEnabled bool
	wakeLatency sim.Cycle
	sleepAfter  sim.Cycle
	asleep      bool
	wakeAt      sim.Cycle
	lastActive  sim.Cycle

	vaRR int

	// buffered caches total flits across input VCs (hot path: lets idle
	// routers skip their pipeline entirely).
	buffered int

	// parked marks the router as off its region's active work list: its
	// Tick would only bump counters (disabled, asleep, or no buffered
	// flits), so the network skips it and the counters are reconstructed
	// lazily by syncIdle. parkedAt is the first cycle whose counters have
	// not been applied yet.
	parked   bool
	parkedAt sim.Cycle

	// shard is the tick region owning this router (Network.carve).
	shard int

	// saBuckets is per-output-port request scratch reused across cycles.
	saBuckets [][]saRequest

	// heldMask and reqMask drive the switch-allocation sweep: bit oi is set
	// while output oi is held by a streaming packet (persistent, maintained
	// by traverse/attachOut) or received an SA request this cycle (cleared
	// each stagePipeline). Only outputs with a bit set can do switch work,
	// so the sweep skips the rest. Maintained for the first 64 ports;
	// wider routers fall back to sweeping every output.
	heldMask uint64
	reqMask  uint64

	// Activity counters (window-accumulated; see TakeActivity).
	act RouterActivity
}

// RouterActivity is the per-router event window used by the power model and
// the RL state (Table I network metrics).
type RouterActivity struct {
	BufferWrites  int64 // flits written into input VC buffers
	BufferReads   int64 // flits read out (switch traversals from a buffer)
	CrossbarTrav  int64 // switch traversals
	VAGrants      int64
	SAGrants      int64
	OccupancySum  int64 // sum over cycles of buffered flits (utilization)
	ActiveCycles  int64 // cycles not asleep/disabled
	GatedCycles   int64 // cycles asleep or disabled (no static power)
	WakeUps       int64
	BufferedPeak  int64
	RoutedPackets int64
}

// newRouter builds a router with nports ports and empty channel attachments.
// Routers start parked: the first arriving flit puts them on the network's
// active list.
func newRouter(id NodeID, nports int, cfg *Config, net *Network) *Router {
	r := &Router{ID: id, cfg: cfg, net: net, parked: true}
	for p := 0; p < nports; p++ {
		r.addPortLocked()
	}
	return r
}

// MaxReconfigPorts is the most ports a runtime reconfiguration grows a
// router to: the tree root's Adapt ports plus its two MC injection ports.
// Restore grows a router back to its stored port count up to this bound.
const MaxReconfigPorts = 11

// addPortLocked appends one port with initialized VC rings.
func (r *Router) addPortLocked() int {
	p := len(r.inputs)
	nvc := NumVNets * r.cfg.VCsPerVNet
	in := InputPort{index: p, vcs: make([]vcState, nvc)}
	// All VC rings of a port share one backing array, so the pipeline's
	// walk over a port's occupied VCs stays within a few cache lines.
	depth := r.cfg.VCDepth
	backing := make([]*Flit, nvc*depth)
	for i := range in.vcs {
		in.vcs[i].ring = backing[i*depth : (i+1)*depth : (i+1)*depth]
		in.vcs[i].resetHeadState()
	}
	r.inputs = append(r.inputs, in)
	r.outputs = append(r.outputs, OutputPort{index: p, holdPort: -1, holdVC: -1})
	// The switch-allocation scratch grows with the port count here, at
	// construction, so stagePipeline never allocates.
	r.saBuckets = append(r.saBuckets, nil)
	return p
}

// NumPorts returns the router's port count.
func (r *Router) NumPorts() int { return len(r.inputs) }

// AttachedPorts counts ports with at least one channel attached — the
// ports that actually burn leakage (a previously grown port left
// unattached after reconfiguration is powered off).
func (r *Router) AttachedPorts() int {
	n := 0
	for p := range r.inputs {
		if r.inputs[p].in != nil || r.outputs[p].out != nil {
			n++
		}
	}
	return n
}

// AddPort appends an extra port (express/adaptable attachment) and returns
// its index.
func (r *Router) AddPort() int {
	return r.addPortLocked()
}

// PortDim returns the dimension a port moves a packet along, using the
// standard port convention (East/West and the row adaptable-link ports are
// X; North/South and the column adaptable ports are Y; everything else,
// including local and express ports, is its own pseudo-dimension so
// dateline classes reset when entering it).
func PortDim(port int) int8 {
	switch port {
	case PortEast, PortWest, 5, 6: // 5,6 = topology.PortAdaptEast/West
		return 0
	case PortNorth, PortSouth, 7, 8:
		return 1
	default:
		return int8(10 + port)
	}
}

// vcIndex maps (vnet, vc-within-vnet) to a flat VC index.
func (r *Router) vcIndex(v VNet, k int) int { return int(v)*r.cfg.VCsPerVNet + k }

// SetTable installs the routing table for a virtual network, effective
// immediately.
func (r *Router) SetTable(v VNet, t *RoutingTable) { r.tables[v] = t }

// Table returns the current routing table for a virtual network.
func (r *Router) Table(v VNet) *RoutingTable { return r.tables[v] }

// StallTables makes route computation unavailable for the next setup
// cycles without changing the tables — the Ts connection-setup window of
// the reconfiguration protocol (Section IV-A).
func (r *Router) StallTables(now sim.Cycle, setup int) {
	ready := now + sim.Cycle(setup)
	if ready > r.tableReadyAt {
		r.tableReadyAt = ready
	}
}

// SetDateline enables torus dateline VC classing on this router for every
// virtual network.
func (r *Router) SetDateline(on bool) {
	for v := range r.useDateline {
		r.useDateline[v] = on
	}
}

// SetDatelineVNet enables dateline classing for one virtual network only.
func (r *Router) SetDatelineVNet(v VNet, on bool) { r.useDateline[v] = on }

// SetDisabled deep-powers the router off (fabric guarantees no routes use
// it). A disabled router must be empty.
func (r *Router) SetDisabled(off bool) {
	if off && r.Occupancy() != 0 {
		panic(fmt.Sprintf("noc: disabling router %d with %d buffered flits", r.ID, r.Occupancy()))
	}
	r.syncIdle(r.net.lastTick)
	r.disabled = off
}

// Disabled reports fabric-level power-off.
func (r *Router) Disabled() bool { return r.disabled }

// UsesDateline reports whether dateline classing is enabled for a vnet.
func (r *Router) UsesDateline(v VNet) bool { return r.useDateline[v] }

// SetVCPolicy installs an OSCAR-style VC admission policy (nil clears).
func (r *Router) SetVCPolicy(p VCPolicy) { r.policy = p }

// SetVCFault marks (dead == true) or repairs one flat output VC on a port.
// A dead VC is skipped by the VC allocator. The caller must ensure the VC
// holds no packet (the fault engine applies damage on a quiescent network).
func (r *Router) SetVCFault(port, flatVC int, dead bool) {
	out := &r.outputs[port]
	if dead {
		out.deadVC |= 1 << uint(flatVC)
	} else {
		out.deadVC &^= 1 << uint(flatVC)
	}
}

// VCFaultMask returns the dead-VC bitmask of an output port.
func (r *Router) VCFaultMask(port int) uint64 { return r.outputs[port].deadVC }

// EnablePowerGating turns on conventional runtime power gating with the
// given wake-up latency and idle timeout (FTBY_PG baseline).
func (r *Router) EnablePowerGating(wake, idle sim.Cycle) {
	r.gateEnabled = true
	r.wakeLatency = wake
	r.sleepAfter = idle
}

// Occupancy returns the number of flits buffered across all input VCs.
func (r *Router) Occupancy() int { return r.buffered }

// PortEmpty reports whether an input port's VC buffers hold no flits.
func (r *Router) PortEmpty(port int) bool {
	in := &r.inputs[port]
	for i := range in.vcs {
		if in.vcs[i].len() > 0 {
			return false
		}
	}
	return true
}

// BufferCapacity returns total input buffering in flits.
func (r *Router) BufferCapacity() int {
	return len(r.inputs) * NumVNets * r.cfg.VCsPerVNet * r.cfg.VCDepth
}

// TakeActivity returns the activity window accumulated since the previous
// call and resets it.
func (r *Router) TakeActivity() RouterActivity {
	r.syncIdle(r.net.lastTick)
	a := r.act
	r.act = RouterActivity{}
	return a
}

// park takes the router off the active list after a cycle in which it did
// no pipeline work and cannot do any until external input arrives; the
// skipped cycles' counters are owed from now+1 (see syncIdle).
func (r *Router) park(now sim.Cycle) {
	r.parked = true
	r.parkedAt = now + 1
}

// syncIdle applies the activity counters for the parked cycles up to and
// including through, exactly as per-cycle Ticks would have: a disabled or
// asleep router accumulates GatedCycles; an enabled idle router
// accumulates ActiveCycles until the power-gating sleep transition (if
// gating is on), which it replays at the same cycle a ticked router would
// have slept.
func (r *Router) syncIdle(through sim.Cycle) {
	if !r.parked || through < r.parkedAt {
		return
	}
	n := int64(through - r.parkedAt + 1)
	switch {
	case r.disabled:
		r.act.GatedCycles += n
	case r.gateEnabled && r.asleep:
		r.act.GatedCycles += n
	case r.gateEnabled:
		// First cycle s at which Tick's sleep check (now >= wakeAt &&
		// now-lastActive > sleepAfter, with zero occupancy) passes.
		s := r.wakeAt
		if t := r.lastActive + r.sleepAfter + 1; t > s {
			s = t
		}
		if s > r.parkedAt {
			a := through
			if s-1 < a {
				a = s - 1
			}
			r.act.ActiveCycles += int64(a - r.parkedAt + 1)
		}
		if through >= s {
			r.asleep = true
			r.act.GatedCycles += int64(through - s + 1)
		}
	default:
		r.act.ActiveCycles += n
	}
	r.parkedAt = through + 1
}

// receiveFlit is called by the network when a channel delivers a flit into
// this router. The flit's VC was chosen by the upstream VA stage.
func (r *Router) receiveFlit(port int, f *Flit, now sim.Cycle) {
	if r.disabled {
		panic(fmt.Sprintf("noc: flit %v arrived at disabled router %d", f.Pkt, r.ID))
	}
	if r.parked {
		// Channels deliver before routers tick, so the router has only
		// been skipped through cycle now-1; settle those counters (which
		// also resolves any pending sleep transition, so the wake check
		// below sees the same asleep state a per-cycle Tick would have
		// left), then rejoin the active list in time for this cycle's
		// router phase.
		r.syncIdle(now - 1)
		r.parked = false
		reg := r.net.regions[r.shard]
		reg.wokenR = append(reg.wokenR, r)
	}
	in := &r.inputs[port]
	vc := &in.vcs[f.VC]
	if vc.len() >= r.cfg.VCDepth {
		panic(fmt.Sprintf("noc: buffer overflow at router %d port %d vc %d (credit protocol violated)",
			r.ID, port, f.VC))
	}
	// Pipeline visibility: Tr cycles of RC/VA/SA pipeline before the flit
	// may traverse (arrival-to-arrival hop latency is Tr+Tl); the injection
	// bypass (Adapt-NoC) lets flits entering an empty local-port VC skip
	// the input pipeline.
	f.visibleAt = now + sim.Cycle(r.cfg.RouterLatency)
	if r.cfg.InjectionBypass && port == PortLocal && vc.len() == 0 {
		f.visibleAt = now
	}
	if r.gateEnabled {
		if r.asleep {
			r.asleep = false
			r.wakeAt = now + r.wakeLatency
			r.act.WakeUps++
		}
		if r.wakeAt > f.visibleAt {
			f.visibleAt = r.wakeAt
		}
	}
	vc.push(f)
	in.liveMask |= 1 << uint(f.VC)
	in.occupied++
	r.buffered++
	r.act.BufferWrites++
	r.lastActive = now
	if r.net.tracer != nil {
		r.net.tracer.FlitArrived(r.ID, port, f, now)
	}
}

// receiveCredit is called by the network when a credit returns to one of
// this router's output ports.
func (r *Router) receiveCredit(port, vc int, now sim.Cycle) {
	out := &r.outputs[port]
	out.credits[vc]++
	if out.credits[vc] > out.depth {
		panic(fmt.Sprintf("noc: credit overflow at router %d port %d vc %d", r.ID, port, vc))
	}
}

// outVCRange returns the [lo, hi) range of within-vnet VC indices a packet
// may claim downstream under dateline classing; class is the packet's
// dateline class after the hop being allocated. The VC policy is applied by
// the callers on top of this range.
func (r *Router) outVCRange(p *Packet, class int) (lo, hi int) {
	lo, hi = 0, r.cfg.VCsPerVNet
	if r.useDateline[p.VNet] && r.cfg.VCsPerVNet > 1 {
		half := r.cfg.VCsPerVNet / 2
		if class == 0 {
			hi = half
		} else {
			lo = half
		}
	}
	return lo, hi
}

// allowedInjectionVCs iterates the local-input VCs a packet may claim at
// injection. It ignores dateline classing: the local
// input buffer is not a ring resource (no route passes ring → local input
// → ring), so restricting it cannot break a dependency cycle — the class-0
// constraint is enforced at the first ring hop by the VA step in
// stagePipeline instead.
func (r *Router) allowedInjectionVCs(p *Packet, yield func(flatVC int) bool) {
	v := p.VNet
	for k := 0; k < r.cfg.VCsPerVNet; k++ {
		if r.policy != nil && !r.policy(p, v, k) {
			continue
		}
		if !yield(r.vcIndex(v, k)) {
			return
		}
	}
}

// Tick advances the router one cycle: route computation for new heads,
// virtual-channel allocation, switch allocation, and switch traversal.
// A tick that ends with nothing buffered parks the router: subsequent
// cycles are skipped by the network and their counters owed to syncIdle
// until a flit arrival unparks it.
func (r *Router) Tick(now sim.Cycle) {
	if r.disabled {
		r.act.GatedCycles++
		r.park(now)
		return
	}
	if r.gateEnabled {
		if r.asleep {
			r.act.GatedCycles++
			r.park(now)
			return
		}
		if now >= r.wakeAt && r.Occupancy() == 0 && now-r.lastActive > r.sleepAfter {
			r.asleep = true
			r.act.GatedCycles++
			r.park(now)
			return
		}
	}
	r.act.ActiveCycles++

	if r.buffered == 0 {
		r.park(now)
		return
	}
	occ := int64(r.buffered)
	r.act.OccupancySum += occ
	if occ > r.act.BufferedPeak {
		r.act.BufferedPeak = occ
	}

	r.stagePipeline(now)
	if r.buffered == 0 {
		r.park(now)
	}
}

// saRequest describes an input VC bidding for an output port this cycle.
type saRequest struct {
	port, vc int
}

// stagePipeline performs route computation, virtual-channel allocation,
// and switch-request collection in a single pass over the input VCs, then
// arbitrates each output port (switch allocation) and traverses winners.
// Merging the stages is purely an optimization: within one cycle the
// sequential RC -> VA -> SA evaluation order per VC is identical to
// separate passes.
func (r *Router) stagePipeline(now sim.Cycle) {
	tablesReady := now >= r.tableReadyAt
	r.reqMask = 0

	// Walk only the occupied VCs of each port via the live-bit mask (a
	// port has at most MaxPortVCs); set bits ascend, so VC order matches a
	// full scan exactly.
	for pi := range r.inputs {
		in := &r.inputs[pi]
		if in.occupied == 0 {
			continue
		}
		for mask := in.liveMask; mask != 0; mask &= mask - 1 {
			r.stageVC(in, bits.TrailingZeros64(mask), now, tablesReady)
		}
	}

	// Switch allocation visits only outputs that are held or requested;
	// every other output would no-op. The snapshot stays accurate mid-loop
	// because a traverse can only change the hold of the output being
	// visited. Requests are filed only for hold-free outputs and holds only
	// change during this sweep, so a held output's bucket is always empty.
	if len(r.outputs) <= 64 {
		for m := r.heldMask | r.reqMask; m != 0; m &= m - 1 {
			r.arbitrateOutput(bits.TrailingZeros64(m), now)
		}
		return
	}
	for oi := range r.outputs {
		r.arbitrateOutput(oi, now)
	}
}

// arbitrateOutput runs switch allocation for one output port: continue the
// held packet if one streams, else pick the round-robin winner among this
// cycle's requests and traverse it. Consumed request buckets are reset here.
func (r *Router) arbitrateOutput(oi int, now sim.Cycle) {
	out := &r.outputs[oi]
	if out.out == nil {
		return
	}
	if !out.holdFree() {
		// Continue the held packet if its next flit is ready.
		r.saBuckets[oi] = r.saBuckets[oi][:0]
		vc := &r.inputs[out.holdPort].vcs[out.holdVC]
		f := vc.front()
		if f != nil && f.visibleAt <= now && out.credits[vc.outVC] > 0 {
			r.traverse(out, out.holdPort, out.holdVC, now)
		}
		return
	}
	reqs := r.saBuckets[oi]
	if len(reqs) == 0 {
		return
	}
	r.saBuckets[oi] = reqs[:0]
	nvc := NumVNets * r.cfg.VCsPerVNet
	total := len(r.inputs) * nvc
	best, bestKey := -1, 1<<30
	for ri, rq := range reqs {
		key := (rq.port*nvc + rq.vc - out.rr + total) % total
		if key < bestKey {
			bestKey = key
			best = ri
		}
	}
	win := reqs[best]
	out.rr = (win.port*nvc + win.vc + 1) % total
	r.traverse(out, win.port, win.vc, now)
}

// stageVC runs the RC -> VA -> SA-request steps for one input VC: route the
// head packet, claim a downstream VC (virtual cut-through), and file a
// switch request into the output's bucket when eligible.
func (r *Router) stageVC(in *InputPort, i int, now sim.Cycle, tablesReady bool) {
	vc := &in.vcs[i]
	f := vc.front()
	if f == nil || f.visibleAt > now {
		return
	}
	// RC: route the packet at the head of the VC.
	if f.Head && !vc.routed {
		if !tablesReady {
			return
		}
		tbl := r.tables[f.Pkt.VNet]
		if tbl == nil {
			return
		}
		e, ok := tbl.Lookup(f.Pkt.Dst)
		if !ok {
			panic(fmt.Sprintf("noc: router %d has no %s route to %d (pkt %v)",
				r.ID, f.Pkt.VNet, f.Pkt.Dst, f.Pkt))
		}
		vc.routed = true
		vc.outPort = int(e.OutPort)
		// Dateline class: reset when the hop enters a new dimension (each
		// ring's dependency cycle is broken independently under
		// dimension-ordered routing), then apply the table's operation.
		base := f.Pkt.datelineClass
		if PortDim(vc.outPort) != f.Pkt.lastDim {
			base = 0
		}
		switch e.Class {
		case ClassKeep:
			vc.classAfter = base
		case ClassSet1:
			vc.classAfter = 1
		case ClassSet0:
			vc.classAfter = 0
		}
		r.act.RoutedPackets++
		if r.net.tracer != nil {
			r.net.tracer.FlitRouted(r.ID, f, vc.outPort, now)
		}
	}
	if !vc.routed {
		return
	}
	out := &r.outputs[vc.outPort]
	if out.out == nil {
		panic(fmt.Sprintf("noc: router %d port %d routed but has no output channel", r.ID, vc.outPort))
	}
	// VA: claim a downstream VC for the whole packet (virtual cut-through:
	// unowned and with credits for every flit). The allowed-VC scan is
	// written out directly — a closure here is a per-VC-per-cycle indirect
	// call on the hottest path in the simulator.
	if vc.outVC < 0 {
		granted := -1
		v := f.Pkt.VNet
		lo, hi := r.outVCRange(f.Pkt, vc.classAfter)
		for k := lo; k < hi; k++ {
			if r.policy != nil && !r.policy(f.Pkt, v, k) {
				continue
			}
			flat := r.vcIndex(v, k)
			if out.deadVC&(1<<uint(flat)) != 0 {
				continue
			}
			if out.owner[flat] == nil && out.credits[flat] >= f.Pkt.Size {
				granted = flat
				break
			}
		}
		if granted < 0 {
			return
		}
		vc.outVC = granted
		out.owner[granted] = f.Pkt
		r.act.VAGrants++
		if r.net.tracer != nil {
			r.net.tracer.FlitVCAllocated(r.ID, f, granted, now)
		}
	}
	// SA request: eligible when credits exist and the output is not held by
	// another packet.
	if out.credits[vc.outVC] <= 0 || !out.holdFree() {
		return
	}
	if vc.outPort < 64 {
		r.reqMask |= 1 << uint(vc.outPort)
	}
	r.saBuckets[vc.outPort] = append(r.saBuckets[vc.outPort], saRequest{port: in.index, vc: i})
}

// traverse moves the front flit of (port, vc) through the crossbar onto the
// output channel, returns a credit upstream, and updates hold/ownership.
func (r *Router) traverse(out *OutputPort, port, vcIdx int, now sim.Cycle) {
	in := &r.inputs[port]
	vc := &in.vcs[vcIdx]
	f := vc.pop()
	if vc.n == 0 {
		in.liveMask &^= 1 << uint(vcIdx)
	}
	in.occupied--
	r.buffered--

	outVC := vc.outVC

	out.credits[outVC]--
	f.VC = outVC
	if f.Head {
		// Dateline state rides the head flit: the only reader is the next
		// router's RC stage, which fires when the head arrives, so the
		// packet must carry the class of the last router the HEAD crossed.
		// Body flits must not write it — they trail at upstream routers
		// whose classAfter may differ (and, under tick sharding, may sit in
		// another region, making the redundant write a data race).
		f.Pkt.datelineClass = vc.classAfter
		f.Pkt.lastDim = PortDim(out.index)
	}
	out.out.send(f, now)

	// The buffer slot frees now; return a credit to the upstream sender on
	// the input channel's reverse wires.
	if in.in != nil {
		in.in.sendCredit(vcIdx, now)
	}

	r.act.BufferReads++
	r.act.CrossbarTrav++
	r.act.SAGrants++
	r.lastActive = now
	if r.net.tracer != nil {
		r.net.tracer.FlitTraversed(r.ID, out.index, f, now)
	}

	if f.Head {
		f.Pkt.Hops++
	}
	if f.Tail {
		out.owner[outVC] = nil
		out.holdPort, out.holdVC = -1, -1
		vc.resetHeadState()
		if out.index < 64 {
			r.heldMask &^= 1 << uint(out.index)
		}
	} else {
		out.holdPort, out.holdVC = port, vcIdx
		if out.index < 64 {
			r.heldMask |= 1 << uint(out.index)
		}
	}
}

// ForEachBufferedFlit visits every flit buffered in this router's input
// VCs in deterministic (port, VC, FIFO) order. Observability/debug only.
func (r *Router) ForEachBufferedFlit(fn func(port, vc int, f *Flit)) {
	if r.buffered == 0 {
		return
	}
	for pi := range r.inputs {
		in := &r.inputs[pi]
		if in.occupied == 0 {
			continue
		}
		for i := range in.vcs {
			vc := &in.vcs[i]
			for k := 0; k < vc.n; k++ {
				fn(in.index, i, vc.ring[(vc.head+k)%len(vc.ring)])
			}
		}
	}
}

// DebugDropCredit silently discards one upstream credit on an output port,
// deliberately breaking the flow-control accounting. It exists solely so
// tests can prove the invariant checker detects a credit leak; nothing in
// the simulator calls it.
func (r *Router) DebugDropCredit(port, vc int) {
	out := &r.outputs[port]
	if out.credits[vc] <= 0 {
		panic(fmt.Sprintf("noc: DebugDropCredit with no credit at router %d port %d vc %d", r.ID, port, vc))
	}
	out.credits[vc]--
}

// attachIn connects a channel to an input port (the input mux selection).
func (r *Router) attachIn(port int, ch *Channel) {
	in := &r.inputs[port]
	if in.in != nil && ch != nil && in.in != ch && in.in.Busy() {
		panic(fmt.Sprintf("noc: re-muxing busy input %d.%d", r.ID, port))
	}
	in.in = ch
}

// attachOut connects a channel to an output port and initializes the credit
// mirror of the downstream buffer (downDepth flits per VC).
func (r *Router) attachOut(port int, ch *Channel, downVCs, downDepth int) {
	out := &r.outputs[port]
	if out.out != nil && ch != nil && out.out != ch && !out.holdFree() {
		panic(fmt.Sprintf("noc: re-muxing busy output %d.%d", r.ID, port))
	}
	out.out = ch
	out.depth = downDepth
	out.credits = make([]int, downVCs)
	out.owner = make([]*Packet, downVCs)
	for i := range out.credits {
		out.credits[i] = downDepth
	}
	out.holdPort, out.holdVC = -1, -1
	if out.index < 64 {
		r.heldMask &^= 1 << uint(out.index)
	}
}

// OutputChannel returns the channel attached to an output port (nil if
// none); used by topology builders and tests.
func (r *Router) OutputChannel(port int) *Channel {
	if port < 0 || port >= len(r.outputs) {
		return nil
	}
	return r.outputs[port].out
}

// InputChannel returns the channel attached to an input port (nil if none).
func (r *Router) InputChannel(port int) *Channel {
	if port < 0 || port >= len(r.inputs) {
		return nil
	}
	return r.inputs[port].in
}
