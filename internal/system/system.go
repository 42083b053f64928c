// Package system is the closed-loop heterogeneous machine model that
// replaces the paper's gem5-GPU full-system simulation: cores produce
// instruction/memory behaviour through a traffic.Source (synthetic phase
// machines or recorded dependency traces), miss in their L1s, query
// distributed shared L2 slices over the request virtual network, spill to
// memory controllers on L2 misses, and stall when their memory-level
// parallelism window fills — so NoC latency feeds back into execution
// time exactly as in the paper's Fig. 10 experiment.
package system

import (
	"fmt"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/traffic"
)

// Params are the memory-hierarchy timing constants.
type Params struct {
	L2LatencyCycles int // L2 slice lookup
	MCLatencyCycles int // DRAM access latency
	MCServiceCycles int // minimum spacing between MC request services (bandwidth)
}

// DefaultParams returns timings typical of the paper's 2 GHz setup.
func DefaultParams() Params {
	return Params{L2LatencyCycles: 8, MCLatencyCycles: 80, MCServiceCycles: 2}
}

// txn is one outstanding memory transaction. stage tracks where the next
// packet carrying it is headed (a transaction is on exactly one packet at
// a time, so the field never races). Every transaction lives in the
// machine's txns table under a stable uint64 ID from creation until its
// data reply retires it, so packets and scheduled events can reference it
// by value — the handle a checkpoint can serialize where a pointer cannot.
// A retired txn is zeroed and recycled by the next newTxn, so no pointer
// to one may be used after the call that can retire it (Network.Enqueue
// included: a fault drop there retires synchronously).
type txn struct {
	id      uint64
	app     *App
	core    *core
	slice   noc.NodeID
	mc      noc.NodeID
	needsMC bool
	stage   txnStage
}

type txnStage int

const (
	stageToSlice txnStage = iota
	stageToMC
)

// Payload kinds (noc.Payload.Kind). A packet carries nothing, a
// fire-and-forget coherence message, a transaction ID, or a trace-replay
// node index handed back to the source's Retirer when the packet leaves
// the network. The numbering is the checkpoint's payload encoding.
const (
	payloadNil uint8 = iota
	payloadCoh
	payloadTxn
	payloadTrace
)

// WindowCounters are the per-epoch instruction/cache observations feeding
// the RL state (Table I). The embedded traffic.Stats block is the portion
// the workload source produces; the packet and latency counters are
// machine-owned.
type WindowCounters struct {
	traffic.Stats

	CoherencePackets int64
	DataPackets      int64

	// Latency window over delivered packets of this app.
	NetLatencySum   int64
	QueueLatencySum int64
	HopSum          int64
	Delivered       int64
}

// AvgNetLatency returns the window's mean network latency in cycles.
func (w WindowCounters) AvgNetLatency() float64 {
	if w.Delivered == 0 {
		return 0
	}
	return float64(w.NetLatencySum) / float64(w.Delivered)
}

// AvgQueueLatency returns the window's mean queuing latency in cycles.
func (w WindowCounters) AvgQueueLatency() float64 {
	if w.Delivered == 0 {
		return 0
	}
	return float64(w.QueueLatencySum) / float64(w.Delivered)
}

// AvgHops returns the window's mean router hop count.
func (w WindowCounters) AvgHops() float64 {
	if w.Delivered == 0 {
		return 0
	}
	return float64(w.HopSum) / float64(w.Delivered)
}

// core is one CPU or GPU core's machine-side state; everything about what
// the core executes lives in the application's Source.
type core struct {
	app         *App
	tile        noc.NodeID
	outstanding int
}

// App is one running application instance mapped onto a set of tiles.
type App struct {
	ID int
	// Profile is the synthetic profile driving a phase-sourced app; for
	// trace-driven apps only Name is set (the recorded label).
	Profile traffic.Profile
	// Tiles are all tiles of the application's region.
	Tiles []noc.NodeID
	// MCTiles are the application's own memory controllers (one per 2x4
	// sub-block in the paper's provisioning); SetMCs replaces the set.
	MCTiles []noc.NodeID
	// ForeignMCs are shared controllers in adjacent subNoCs
	// (Section II-C.2); ForeignFrac of off-chip accesses go there.
	ForeignMCs  []noc.NodeID
	ForeignFrac float64
	// InstrBudget is per core; 0 means run forever (latency experiments)
	// or, for trace-driven apps, until the trace drains.
	InstrBudget int64

	cores   []*core
	layout  *traffic.Layout
	src     traffic.Source
	retirer traffic.Retirer // src's Retirer side, nil if none
	finite  bool
	// deliverable is the machine's fault-guard routability query, wired
	// by AddApp (nil until then; see Deliverable).
	deliverable func(from, to noc.NodeID) bool
	finishedAt  sim.Cycle
	win         WindowCounters
	total       WindowCounters
}

// NewApp builds a profile-driven application over its tiles. Cores run on
// every tile except the MC tiles; every tile hosts an L2 slice.
func NewApp(id int, prof traffic.Profile, tiles []noc.NodeID, mcTiles []noc.NodeID, budget int64, rng *sim.RNG) *App {
	if len(prof.Phases) == 0 {
		panic("system: profile with no phases")
	}
	a := newAppShell(id, tiles, mcTiles)
	a.Profile = prof
	a.InstrBudget = budget
	a.attachSource(traffic.NewPhaseSource(prof, budget, a.layout, rng))
	return a
}

// NewSourceApp builds an application driven by an externally constructed
// Source (trace replay). label names the workload in results tables.
func NewSourceApp(id int, label string, src traffic.Source, tiles []noc.NodeID, mcTiles []noc.NodeID) *App {
	a := newAppShell(id, tiles, mcTiles)
	a.Profile = traffic.Profile{Name: label}
	a.attachSource(src)
	return a
}

// newAppShell builds the machine-side tile geometry shared by every
// source kind.
func newAppShell(id int, tiles []noc.NodeID, mcTiles []noc.NodeID) *App {
	if len(tiles) == 0 {
		panic("system: app with no tiles")
	}
	a := &App{
		ID:         id,
		Tiles:      append([]noc.NodeID(nil), tiles...),
		MCTiles:    append([]noc.NodeID(nil), mcTiles...),
		layout:     &traffic.Layout{},
		finishedAt: -1,
	}
	isMC := make(map[noc.NodeID]bool)
	for _, m := range mcTiles {
		isMC[m] = true
	}
	for _, t := range tiles {
		a.layout.L2Tiles = append(a.layout.L2Tiles, t)
		if !isMC[t] {
			a.cores = append(a.cores, &core{app: a, tile: t})
			a.layout.CoreTiles = append(a.layout.CoreTiles, t)
		}
	}
	if len(a.cores) == 0 {
		panic("system: app has no core tiles")
	}
	// The hotspot home slice must not share a tile with a memory
	// controller: one NI cannot source both flows.
	a.layout.HotSlice = a.cores[len(a.cores)/2].tile
	a.layout.MCTiles = a.MCTiles
	return a
}

// attachSource binds the source to the app's machine-side view.
func (a *App) attachSource(src traffic.Source) {
	a.src = src
	a.retirer, _ = src.(traffic.Retirer)
	a.finite = src.Finite()
	src.Bind(a)
}

// Outstanding implements traffic.View.
func (a *App) Outstanding(core int) int { return a.cores[core].outstanding }

// Deliverable implements traffic.View: it asks the machine's network
// whether a from→to request injection would survive the fault guard. An
// unregistered app (unit tests drive sources without a machine) reports
// everything deliverable.
func (a *App) Deliverable(from, to noc.NodeID) bool {
	return a.deliverable == nil || a.deliverable(from, to)
}

// Stats implements traffic.View.
func (a *App) Stats() (win, total *traffic.Stats) { return &a.win.Stats, &a.total.Stats }

// SetForeignMCs configures shared foreign controllers and the fraction of
// off-chip accesses directed to them.
func (a *App) SetForeignMCs(mcs []noc.NodeID, frac float64) {
	a.ForeignMCs = append([]noc.NodeID(nil), mcs...)
	a.ForeignFrac = frac
	a.layout.ForeignMCs = a.ForeignMCs
	a.layout.ForeignFrac = frac
}

// Finished reports whether the workload has fully completed and drained.
func (a *App) Finished() bool { return a.finishedAt >= 0 }

// FinishedAt returns the completion cycle (-1 if still running).
func (a *App) FinishedAt() sim.Cycle { return a.finishedAt }

// TakeWindow returns and resets the app's epoch counters.
func (a *App) TakeWindow() WindowCounters {
	w := a.win
	a.win = WindowCounters{}
	return w
}

// Totals returns lifetime counters (never reset).
func (a *App) Totals() WindowCounters { return a.total }

// Progress returns the source's completion indicator (profile apps: mean
// retired instructions per core; trace apps: retired packets).
func (a *App) Progress() float64 { return a.src.Progress() }

// StallCycles returns cumulative full-window stall cycles across cores.
func (a *App) StallCycles() int64 { return a.src.StallCycles() }

// mcState is one memory controller's service queue.
type mcState struct {
	busyUntil sim.Cycle
	queueLen  int
	served    int64
}

// Machine couples apps, the memory hierarchy, and a network.
type Machine struct {
	P      Params
	net    *noc.Network
	kernel *sim.Kernel
	apps   []*App
	mcs    map[noc.NodeID]*mcState

	// txns is the outstanding-transaction table: ID → live transaction.
	// The map is only ever looked up by key (never iterated on the hot
	// path), so map ordering cannot leak into behaviour; snapshots iterate
	// it sorted.
	txns    map[uint64]*txn
	nextTxn uint64
	// free is the LIFO stack of retired transactions newTxn recycles, so
	// a steady-state run allocates none. Serial-only (deliveries replay
	// serially) and never serialized: a restore starts it empty.
	free []*txn

	// rec, when set, captures every injection into a dependency trace.
	rec *traffic.Recorder

	// dropped tallies fault-dropped packets per application ID. Kept out
	// of WindowCounters so the machine checkpoint section layout stays
	// frozen; the fault section serializes it instead.
	dropped map[int]int64
}

// Kernel operation IDs owned by this package (range 100-199).
const (
	// opSliceRespond continues transaction args[0] after its L2 lookup.
	opSliceRespond sim.OpID = 100 + iota
	// opMCReply dequeues transaction args[0] from its memory controller
	// and sends the data reply.
	opMCReply
)

// NewMachine wires a machine to a network and kernel. It takes over the
// network's delivery and drop callbacks.
func NewMachine(net *noc.Network, kernel *sim.Kernel, p Params) *Machine {
	m := &Machine{
		P: p, net: net, kernel: kernel,
		mcs:     make(map[noc.NodeID]*mcState),
		txns:    make(map[uint64]*txn),
		dropped: make(map[int]int64),
	}
	net.SetDeliverFunc(m.deliver)
	net.SetDropFunc(m.Drop)
	kernel.Register(m)
	kernel.RegisterOp(opSliceRespond, func(now sim.Cycle, args [3]int64) {
		m.sliceRespond(m.txnByID(uint64(args[0])), now)
	})
	kernel.RegisterOp(opMCReply, func(now sim.Cycle, args [3]int64) {
		t := m.txnByID(uint64(args[0]))
		m.mcs[t.mc].queueLen--
		m.replyData(t, t.mc, now)
	})
	return m
}

// txnByID resolves a transaction handle carried by an event or packet; a
// dangling ID is a simulator bug, not a recoverable condition.
func (m *Machine) txnByID(id uint64) *txn {
	t := m.txns[id]
	if t == nil {
		panic(fmt.Sprintf("system: unknown transaction %d", id))
	}
	return t
}

// newTxn assigns the next transaction ID to a recycled (or, with the
// freelist empty, fresh) txn and enters it into the outstanding table.
func (m *Machine) newTxn(a *App, c *core, slice, mc noc.NodeID, needsMC bool) *txn {
	var t *txn
	if n := len(m.free); n > 0 {
		t = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		t = new(txn)
	}
	m.nextTxn++
	*t = txn{id: m.nextTxn, app: a, core: c, slice: slice, mc: mc, needsMC: needsMC}
	m.txns[t.id] = t
	return t
}

// retireTxn removes a completed transaction from the table and recycles
// it. Retiring a transaction that is not outstanding — a double retire —
// is a simulator bug and panics before the freelist could hand one txn to
// two owners.
func (m *Machine) retireTxn(t *txn) {
	if m.txns[t.id] != t {
		panic(fmt.Sprintf("system: retiring transaction %d that is not outstanding", t.id))
	}
	delete(m.txns, t.id)
	*t = txn{}
	m.free = append(m.free, t)
}

// SetRecorder attaches a dependency-trace recorder. It must be wired
// before the first cycle of a fresh run (recorded gaps are absolute from
// cycle 0).
func (m *Machine) SetRecorder(rec *traffic.Recorder) { m.rec = rec }

// AddApp registers an application; its MCs get service state.
func (m *Machine) AddApp(a *App) {
	a.deliverable = func(from, to noc.NodeID) bool {
		return m.net.Deliverable(from, to, noc.VNetRequest)
	}
	m.apps = append(m.apps, a)
	for _, mc := range a.MCTiles {
		if m.mcs[mc] == nil {
			m.mcs[mc] = &mcState{}
		}
	}
}

// Apps returns the registered applications.
func (m *Machine) Apps() []*App { return m.apps }

// AllFinished reports whether every finite app has completed.
func (m *Machine) AllFinished() bool {
	for _, a := range m.apps {
		if a.finite && !a.Finished() {
			return false
		}
	}
	return true
}

// Tick advances every application one cycle: the source simulates its
// cores, then the buffered injection events apply in issue order.
func (m *Machine) Tick(now sim.Cycle) {
	for _, a := range m.apps {
		if a.finite && a.Finished() {
			continue
		}
		done := a.src.Advance(now)
		for {
			ev, ok := a.src.NextEvent()
			if !ok {
				break
			}
			m.applyEvent(a, ev, now)
		}
		if a.finite && done && a.finishedAt < 0 {
			a.finishedAt = now
		}
	}
}

// applyEvent turns one source event into machine activity.
func (m *Machine) applyEvent(a *App, ev traffic.Event, now sim.Cycle) {
	switch ev.Kind {
	case traffic.EvCoherence:
		src, dst := a.cores[ev.Core].tile, a.cores[ev.Peer].tile
		p := m.net.NewPacket(src, dst, noc.ClassCoherence, noc.VNetRequest, a.ID)
		p.Payload = noc.Payload{Kind: payloadCoh}
		m.net.Enqueue(p, now)
		a.win.CoherencePackets++
		a.total.CoherencePackets++
		if m.rec != nil {
			m.rec.Coherence(a.ID, src, dst, now, a.total.Stats)
		}

	case traffic.EvMem:
		c := a.cores[ev.Core]
		// Only the ID outlives Enqueue, which may drop and retire the txn.
		id := m.newTxn(a, c, ev.Slice, ev.MC, ev.NeedsMC).id
		c.outstanding++
		if m.rec != nil {
			m.rec.TxnStart(a.ID, ev.Core, id)
		}
		if ev.Slice == c.tile {
			// Local slice: no request traffic; resolve after the L2 lookup.
			m.kernel.AfterOp(sim.Cycle(m.P.L2LatencyCycles), opSliceRespond, int64(id), 0, 0)
			return
		}
		p := m.net.NewPacket(c.tile, ev.Slice, noc.ClassCoherence, noc.VNetRequest, a.ID)
		p.Payload = noc.Payload{Kind: payloadTxn, Ref: id}
		m.net.Enqueue(p, now)
		a.win.CoherencePackets++
		a.total.CoherencePackets++
		if m.rec != nil {
			m.rec.TxnSend(id, c.tile, ev.Slice, false, now, a.total.Stats)
		}

	case traffic.EvPacket:
		class, vnet := noc.ClassCoherence, noc.VNetRequest
		if ev.Data {
			class, vnet = noc.ClassData, noc.VNetReply
		}
		p := m.net.NewPacket(ev.Src, ev.Dst, class, vnet, a.ID)
		p.Payload = noc.Payload{Kind: payloadTrace, Ref: ev.Ref}
		m.net.Enqueue(p, now)
		if ev.Data {
			a.win.DataPackets++
			a.total.DataPackets++
		} else {
			a.win.CoherencePackets++
			a.total.CoherencePackets++
		}
		if m.rec != nil {
			m.rec.Packet(a.ID, ev.Src, ev.Dst, ev.Data, now, a.total.Stats)
		}
	}
}

// deliver dispatches arriving packets to the memory-hierarchy agents.
func (m *Machine) deliver(p *noc.Packet, now sim.Cycle) {
	if p.App >= 0 {
		if a := m.appByID(p.App); a != nil {
			a.win.Delivered++
			a.win.NetLatencySum += int64(p.NetworkLatency())
			a.win.QueueLatencySum += int64(p.QueuingLatency())
			a.win.HopSum += int64(p.Hops)
			a.total.Delivered++
			a.total.NetLatencySum += int64(p.NetworkLatency())
			a.total.QueueLatencySum += int64(p.QueuingLatency())
			a.total.HopSum += int64(p.Hops)
		}
	}
	switch p.Payload.Kind {
	case payloadTxn:
		t := m.txnByID(p.Payload.Ref)
		if m.rec != nil {
			m.rec.TxnPacketDone(t.id, now)
		}
		switch {
		case p.VNet == noc.VNetReply:
			t.core.outstanding--
			if t.core.outstanding < 0 {
				panic(fmt.Sprintf("system: outstanding underflow at core %d", t.core.tile))
			}
			if m.rec != nil {
				m.rec.TxnEnd(t.id, now)
			}
			m.retireTxn(t)
		case t.stage == stageToSlice:
			m.kernel.AfterOp(sim.Cycle(m.P.L2LatencyCycles), opSliceRespond, int64(t.id), 0, 0)
		default: // stageToMC
			m.mcService(t, now)
		}
	case payloadTrace:
		if a := m.appByID(p.App); a != nil && a.retirer != nil {
			a.retirer.Retire(p.Payload.Ref, now)
		}
	case payloadCoh:
		// Fire-and-forget coherence message: nothing further.
	}
}

// Drop handles a packet a fault made undeliverable. The transaction it
// carried (if any) is abandoned: the issuing core's outstanding slot is
// released so it keeps issuing — lost requests cost survival rate, not a
// wedged core. Safe to retire here because kernel descriptor events only
// ever reference a transaction while it is NOT riding a packet
// (opSliceRespond and opMCReply are scheduled after delivery). A dropped
// trace packet still retires its node so dependents release — a faulty
// fabric degrades a replay instead of deadlocking it.
func (m *Machine) Drop(p *noc.Packet, now sim.Cycle) {
	if p.App >= 0 {
		m.dropped[p.App]++
	}
	switch p.Payload.Kind {
	case payloadTxn:
		t := m.txnByID(p.Payload.Ref)
		t.core.outstanding--
		if t.core.outstanding < 0 {
			panic(fmt.Sprintf("system: outstanding underflow at core %d on drop", t.core.tile))
		}
		if m.rec != nil {
			m.rec.TxnPacketDone(t.id, now)
			m.rec.TxnEnd(t.id, now)
		}
		m.retireTxn(t)
	case payloadTrace:
		if a := m.appByID(p.App); a != nil && a.retirer != nil {
			a.retirer.Retire(p.Payload.Ref, now)
		}
	}
}

// DroppedPackets returns the fault-dropped packet count of one application.
func (m *Machine) DroppedPackets(appID int) int64 { return m.dropped[appID] }

// sliceRespond continues a transaction after the L2 lookup.
func (m *Machine) sliceRespond(t *txn, now sim.Cycle) {
	if t.needsMC {
		t.stage = stageToMC
		if t.slice == t.mc {
			m.mcService(t, now)
			return
		}
		// Enqueue may drop the packet and retire t: read t first.
		a, id, slice, mc := t.app, t.id, t.slice, t.mc
		p := m.net.NewPacket(slice, mc, noc.ClassCoherence, noc.VNetRequest, a.ID)
		p.Payload = noc.Payload{Kind: payloadTxn, Ref: id}
		m.net.Enqueue(p, now)
		a.win.CoherencePackets++
		a.total.CoherencePackets++
		if m.rec != nil {
			m.rec.TxnSend(id, slice, mc, false, now, a.total.Stats)
		}
		return
	}
	m.replyData(t, t.slice, now)
}

// mcService queues a transaction at a memory controller and replies after
// DRAM latency, respecting the controller's service bandwidth.
func (m *Machine) mcService(t *txn, now sim.Cycle) {
	mc := m.mcs[t.mc]
	if mc == nil {
		mc = &mcState{}
		m.mcs[t.mc] = mc
	}
	start := now
	if mc.busyUntil > start {
		start = mc.busyUntil
	}
	mc.busyUntil = start + sim.Cycle(m.P.MCServiceCycles)
	mc.queueLen++
	mc.served++
	m.kernel.ScheduleOp(start+sim.Cycle(m.P.MCLatencyCycles), opMCReply, int64(t.id), 0, 0)
}

// replyData sends the data reply that completes a transaction.
func (m *Machine) replyData(t *txn, from noc.NodeID, now sim.Cycle) {
	if from == t.core.tile {
		t.core.outstanding--
		if m.rec != nil {
			m.rec.TxnEnd(t.id, now)
		}
		m.retireTxn(t)
		return
	}
	// Enqueue may drop the packet and retire t: read t first.
	a, id, dst := t.app, t.id, t.core.tile
	p := m.net.NewPacket(from, dst, noc.ClassData, noc.VNetReply, a.ID)
	p.Payload = noc.Payload{Kind: payloadTxn, Ref: id}
	m.net.Enqueue(p, now)
	a.win.DataPackets++
	a.total.DataPackets++
	if m.rec != nil {
		m.rec.TxnSend(id, from, dst, true, now, a.total.Stats)
	}
}

func (m *Machine) appByID(id int) *App {
	for _, a := range m.apps {
		if a.ID == id {
			return a
		}
	}
	return nil
}
