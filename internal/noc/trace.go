package noc

import "adaptnoc/internal/sim"

// Tracer observes the full flit lifecycle: packet enqueue at the source
// NI, injection into the first router, per-hop pipeline progress (arrival,
// route computation, VC allocation, switch traversal), link traversals,
// and per-flit ejection / packet delivery at the destination.
//
// The network holds a single nil-checkable Tracer; every hot-path call
// site is guarded by one nil comparison, so a disabled tracer costs one
// predicted branch per event and nothing else. Implementations live in
// internal/obs (Chrome trace_event export, binary ring buffer, latency
// histograms); they must not mutate the flits or packets they observe and
// must not retain *Flit or *Packet pointers past the packet's delivery:
// both index into the network's arena and are recycled by a later packet
// (see pool.go). Identity that must outlive delivery is (Pkt.ID, Seq).
//
// All callbacks run synchronously inside Network.Tick in deterministic
// simulation order, so a tracer needs no locking of its own.
type Tracer interface {
	// PacketEnqueued fires when a packet enters its source NI queue.
	PacketEnqueued(p *Packet, now sim.Cycle)
	// PacketInjected fires when the head flit is sent on the injection
	// channel toward the first router.
	PacketInjected(p *Packet, router NodeID, now sim.Cycle)
	// FlitArrived fires when a flit is written into a router input VC.
	FlitArrived(router NodeID, port int, f *Flit, now sim.Cycle)
	// FlitRouted fires when route computation resolves the packet's
	// output port at a router (head flit only, once per hop).
	FlitRouted(router NodeID, f *Flit, outPort int, now sim.Cycle)
	// FlitVCAllocated fires when VC allocation grants the packet a
	// downstream VC (head flit only, once per hop).
	FlitVCAllocated(router NodeID, f *Flit, outVC int, now sim.Cycle)
	// FlitTraversed fires when a flit wins switch allocation and crosses
	// the crossbar onto its output channel (the SA+ST stages).
	FlitTraversed(router NodeID, outPort int, f *Flit, now sim.Cycle)
	// LinkTraversed fires when a channel delivers a flit: sent is the
	// cycle the flit entered the wire, arrived the delivery cycle.
	LinkTraversed(ch *Channel, f *Flit, sent, arrived sim.Cycle)
	// FlitEjected fires when a flit is consumed by the destination NI.
	FlitEjected(ni NodeID, f *Flit, now sim.Cycle)
	// PacketDelivered fires when the tail flit completes a packet; the
	// packet's EnqueuedAt/InjectedAt/EjectedAt stamps are final.
	PacketDelivered(p *Packet, now sim.Cycle)
}

// NopTracer implements Tracer with no-ops; embed it to implement only the
// events a collector cares about.
type NopTracer struct{}

// PacketEnqueued implements Tracer.
func (NopTracer) PacketEnqueued(*Packet, sim.Cycle) {}

// PacketInjected implements Tracer.
func (NopTracer) PacketInjected(*Packet, NodeID, sim.Cycle) {}

// FlitArrived implements Tracer.
func (NopTracer) FlitArrived(NodeID, int, *Flit, sim.Cycle) {}

// FlitRouted implements Tracer.
func (NopTracer) FlitRouted(NodeID, *Flit, int, sim.Cycle) {}

// FlitVCAllocated implements Tracer.
func (NopTracer) FlitVCAllocated(NodeID, *Flit, int, sim.Cycle) {}

// FlitTraversed implements Tracer.
func (NopTracer) FlitTraversed(NodeID, int, *Flit, sim.Cycle) {}

// LinkTraversed implements Tracer.
func (NopTracer) LinkTraversed(*Channel, *Flit, sim.Cycle, sim.Cycle) {}

// FlitEjected implements Tracer.
func (NopTracer) FlitEjected(NodeID, *Flit, sim.Cycle) {}

// PacketDelivered implements Tracer.
func (NopTracer) PacketDelivered(*Packet, sim.Cycle) {}

// SetTracer installs (or, with nil, removes) the lifecycle tracer.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// VerifyFunc checks network-wide invariants; returning an error makes the
// network panic at the end of the offending Tick (fail loudly — a broken
// conservation or credit invariant means every later result is garbage).
type VerifyFunc func(n *Network, now sim.Cycle) error

// SetVerifier installs an invariant checker that runs at the end of every
// Tick whose cycle is a multiple of every. every <= 0 or fn == nil
// disables checking.
func (n *Network) SetVerifier(every int64, fn VerifyFunc) {
	if every <= 0 || fn == nil {
		n.verifyEvery, n.verifier = 0, nil
		return
	}
	n.verifyEvery, n.verifier = every, fn
}

// Test-only default verifier, installed into every subsequently built
// Network. Test packages register it from an init() in a _test.go file
// (see internal/noc and internal/exp), which turns every simulation test
// into a conservation / credit-balance / timestamp check without touching
// production call sites. The indirection exists because the checker lives
// in internal/obs, which imports this package.
var (
	testVerifier    VerifyFunc
	testVerifyEvery int64
)

// InstallTestVerifier registers a VerifyFunc that NewNetwork will install
// on every network it builds from now on. Intended to be called from an
// init() in a _test.go file; it is not safe to call concurrently with
// NewNetwork.
func InstallTestVerifier(every int64, fn VerifyFunc) {
	testVerifier, testVerifyEvery = fn, every
}
