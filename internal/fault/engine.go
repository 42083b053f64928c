package fault

import (
	"fmt"

	"adaptnoc/internal/fabric"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// Kernel operation IDs owned by this package (range 400-499). Fault strikes,
// drain polls, and repairs are descriptor events so a checkpoint taken at
// any point of a fault's lifecycle resumes it exactly.
const (
	// opFaultStrike marks schedule event args[0] pending and starts (or
	// joins) a drain.
	opFaultStrike sim.OpID = 400 + iota
	// opFaultPoll re-checks drain progress each cycle until the network is
	// quiescent, then applies all pending strikes and repairs at once.
	opFaultPoll
	// opFaultRepair marks schedule event args[0] pending-for-repair and
	// starts (or joins) a drain.
	opFaultRepair
)

// Options tunes the engine.
type Options struct {
	// EscalateVCFaults treats every VC fault as a link fault. The OSCAR
	// baseline installs an opaque VC admission policy the engine cannot
	// inspect, so it cannot prove a partially masked port still admits
	// every packet class; escalation keeps the run deadlock-free.
	EscalateVCFaults bool
	// SetupCycles is the Ts table-setup stall charged after every damage
	// application; 0 means fabric.DefaultSetupCycles.
	SetupCycles int
}

// pendingAction is one strike or repair waiting for the drain to finish.
type pendingAction struct {
	idx    int
	repair bool
}

// chanRec remembers a severed channel so repair can rebuild it exactly.
type chanRec struct {
	from, to     noc.Endpoint
	kind         noc.ChannelKind
	latency      int
	tiles        int
	intermediate bool
}

// damageRec is the undo record of one applied event, in application order.
type damageRec struct {
	kind      Kind
	router    noc.NodeID
	port      int
	vcMask    uint64
	escalated bool
	chans     []chanRec
	locals    []noc.LocalAttachment
	disabled  bool
}

// bridgeRec is one adaptable-link bridge the healer added.
type bridgeRec struct {
	a, b         noc.NodeID
	aPort, bPort int
}

// Engine drives a fault schedule against one network. All damage lands at
// quiescent points: a strike freezes the fabric (no topology switches may
// race the repair wiring), waits for any in-flight reconfiguration to
// finish, gates every NI, polls for quiescence, and only then rewires.
//
// The wiring under faults is a pure function of (base topology, set of
// currently active events): every application resets to the captured base
// and re-applies the active set in schedule order. That makes runs
// deterministic and lets checkpoint restore rebuild the damaged wiring by
// replaying the active set against the fabric-replayed base.
type Engine struct {
	net    *noc.Network
	kernel *sim.Kernel
	fab    *fabric.Fabric // nil for static (non-Adapt) designs
	sched  []Event
	opts   Options

	pending    []pendingAction
	active     []bool
	draining   bool
	drainStart sim.Cycle
	gatedAll   bool
	savedGates []bool

	// Captured base state (first strike) and the undo log of the currently
	// applied damage.
	baseTaken    bool
	baseTables   [][noc.NumVNets]*noc.RoutingTable
	baseDateline [][noc.NumVNets]bool
	baseDisabled []bool
	records      []damageRec
	bridges      []bridgeRec

	// Run counters.
	Strikes int64 // damage applications (strike events landed)
	Repairs int64 // repair events landed
}

// New validates a schedule, registers the engine's descriptor ops, and
// schedules every strike. fab may be nil (static designs have no
// reconfigurable fabric; recovery prunes their tables instead).
func New(net *noc.Network, kernel *sim.Kernel, fab *fabric.Fabric, sched []Event, opts Options) (*Engine, error) {
	if len(sched) > MaxEvents {
		return nil, fmt.Errorf("fault: schedule has %d events, limit %d", len(sched), MaxEvents)
	}
	for i := range sched {
		if ce := sched[i].Check(net.Cfg.NumNodes()); ce != nil {
			return nil, fmt.Errorf("fault: events[%d].%s: %s", i, ce.Field, ce.Msg)
		}
	}
	if opts.SetupCycles == 0 {
		opts.SetupCycles = fabric.DefaultSetupCycles
	}
	e := &Engine{
		net: net, kernel: kernel, fab: fab,
		sched:      append([]Event(nil), sched...),
		opts:       opts,
		active:     make([]bool, len(sched)),
		savedGates: make([]bool, net.Cfg.NumNodes()),
	}
	kernel.RegisterOp(opFaultStrike, func(now sim.Cycle, args [3]int64) {
		e.pending = append(e.pending, pendingAction{idx: int(args[0])})
		e.beginDrain(now)
	})
	kernel.RegisterOp(opFaultRepair, func(now sim.Cycle, args [3]int64) {
		e.pending = append(e.pending, pendingAction{idx: int(args[0]), repair: true})
		e.beginDrain(now)
	})
	kernel.RegisterOp(opFaultPoll, func(now sim.Cycle, args [3]int64) {
		e.poll(now)
	})
	// Checkpoint restore discards construction-time schedules and replays
	// the blob's event list instead, so scheduling here is safe on both the
	// fresh and the restored path.
	for i := range e.sched {
		kernel.ScheduleOp(sim.Cycle(e.sched[i].Cycle), opFaultStrike, int64(i), 0, 0)
	}
	return e, nil
}

// Extend appends events to the schedule at runtime (fault campaigns replay
// one warmed checkpoint under many schedules). Every event must strike
// strictly after the current cycle.
func (e *Engine) Extend(events []Event) error {
	if len(e.sched)+len(events) > MaxEvents {
		return fmt.Errorf("fault: extending to %d events, limit %d", len(e.sched)+len(events), MaxEvents)
	}
	now := e.kernel.Now()
	for i := range events {
		if ce := events[i].Check(e.net.Cfg.NumNodes()); ce != nil {
			return fmt.Errorf("fault: events[%d].%s: %s", i, ce.Field, ce.Msg)
		}
		if events[i].Cycle <= int64(now) {
			return fmt.Errorf("fault: events[%d].cycle: %d is not after the current cycle %d", i, events[i].Cycle, now)
		}
	}
	base := len(e.sched)
	e.sched = append(e.sched, events...)
	e.active = append(e.active, make([]bool, len(events))...)
	for i := range events {
		e.kernel.ScheduleOp(sim.Cycle(events[i].Cycle), opFaultStrike, int64(base+i), 0, 0)
	}
	return nil
}

// Schedule returns the full event schedule (do not mutate).
func (e *Engine) Schedule() []Event { return e.sched }

// beginDrain starts the drain toward the next application point. Joining an
// ongoing drain is free: the pending action folds into the same apply.
func (e *Engine) beginDrain(now sim.Cycle) {
	if e.draining {
		return
	}
	e.draining = true
	e.drainStart = now
	if e.fab != nil {
		// Permanently freeze topology switching: repair wiring and the
		// reconfiguration protocol must never race over the same ports.
		e.fab.Freeze()
	}
	e.kernel.AfterOp(1, opFaultPoll, 0, 0, 0)
}

// poll advances the drain state machine one cycle: wait for any in-flight
// reconfiguration to finish, then gate all NIs, then wait for the network
// to empty, then apply.
func (e *Engine) poll(now sim.Cycle) {
	if !e.draining {
		return // stale poll after an apply in the same cycle
	}
	// The fabric's bound: exceeding it would mean packets are stuck
	// before the damage even lands.
	if now > e.drainStart+fabric.DrainTimeout {
		panic(fmt.Sprintf("fault: network failed to drain within %d cycles of the strike at %d",
			fabric.DrainTimeout, e.drainStart))
	}
	if !e.fabricSettled() {
		e.repoll()
		return
	}
	if !e.gatedAll {
		for i, ni := range e.net.NIs() {
			e.savedGates[i] = ni.Gated()
			ni.SetGated(true)
		}
		e.gatedAll = true
		e.repoll()
		return
	}
	if !e.quiet() {
		e.repoll()
		return
	}
	e.apply(now)
}

func (e *Engine) repoll() { e.kernel.AfterOp(1, opFaultPoll, 0, 0, 0) }

// fabricSettled reports whether no subNoC is mid-reconfiguration. The
// fabric is frozen, so once settled it stays settled.
func (e *Engine) fabricSettled() bool {
	if e.fab == nil {
		return true
	}
	for _, sn := range e.fab.SubNoCs() {
		if sn.State() != fabric.StateActive {
			return false
		}
	}
	return true
}

// quiet reports full network quiescence: no flit buffered or in flight, no
// NI mid-stream, and no credit still travelling on any channel (channels
// must be idle before they can be severed).
func (e *Engine) quiet() bool {
	if !e.net.Quiescent() {
		return false
	}
	for _, ch := range e.net.Channels() {
		if ch.Busy() {
			return false
		}
	}
	return true
}

// apply lands every pending strike and repair on the drained network:
// reset to the captured base, fold the pending set into the active set,
// re-apply all active damage in schedule order, heal, arm the drop
// accounting, sweep queues the new topology cannot serve, and reopen
// injection.
func (e *Engine) apply(now sim.Cycle) {
	if !e.baseTaken {
		e.captureBase()
	}
	e.resetToBase()
	for _, pa := range e.pending {
		if pa.repair {
			if e.active[pa.idx] {
				e.active[pa.idx] = false
				e.Repairs++
			}
			continue
		}
		e.active[pa.idx] = true
		e.Strikes++
		if rep := e.sched[pa.idx].Repair; rep > 0 {
			e.kernel.AfterOp(sim.Cycle(rep), opFaultRepair, int64(pa.idx), 0, 0)
		}
	}
	e.pending = e.pending[:0]
	any := false
	for i := range e.active {
		if e.active[i] {
			e.applyEvent(i)
			any = true
		}
	}
	if any {
		e.heal()
	}
	e.stallAll(now)
	e.net.SetFaultGuard(true)
	e.net.DropUnroutable(now)
	for i, g := range e.savedGates {
		e.net.NI(noc.NodeID(i)).SetGated(g)
	}
	e.gatedAll = false
	e.draining = false
}

// captureBase records the pre-fault wiring's routing state. The fabric is
// frozen before the first apply, so this base is stable for the rest of
// the run — and checkpoint restore recaptures an identical base from the
// fabric-replayed wiring.
func (e *Engine) captureBase() {
	num := e.net.Cfg.NumNodes()
	e.baseTables = make([][noc.NumVNets]*noc.RoutingTable, num)
	e.baseDateline = make([][noc.NumVNets]bool, num)
	e.baseDisabled = make([]bool, num)
	for i := 0; i < num; i++ {
		r := e.net.Router(noc.NodeID(i))
		for v := noc.VNet(0); v < noc.NumVNets; v++ {
			e.baseTables[i][v] = r.Table(v)
			e.baseDateline[i][v] = r.UsesDateline(v)
		}
		e.baseDisabled[i] = r.Disabled()
	}
	e.baseTaken = true
}

// resetToBase undoes every applied bridge and damage record, restoring the
// exact base wiring, tables, and dateline flags. Runs on a quiescent
// network only.
func (e *Engine) resetToBase() {
	for i := len(e.bridges) - 1; i >= 0; i-- {
		br := e.bridges[i]
		e.net.DisconnectOut(br.a, br.aPort)
		e.net.DisconnectOut(br.b, br.bPort)
	}
	e.bridges = e.bridges[:0]
	for i := len(e.records) - 1; i >= 0; i-- {
		rec := &e.records[i]
		if rec.disabled {
			e.net.Router(rec.router).SetDisabled(false)
		}
		for _, cr := range rec.chans {
			ch := e.net.Connect(cr.from, cr.to, cr.kind, cr.latency, cr.tiles)
			ch.Intermediate = cr.intermediate
		}
		for _, la := range rec.locals {
			if la.WithEjection {
				e.net.AttachLocalPort(rec.router, la.Port, la.Tiles, la.Latency)
			} else {
				e.net.AttachInjectionPort(rec.router, la.Port, la.Tiles, la.Latency)
			}
		}
		if rec.vcMask != 0 {
			for vc := 0; vc < 64; vc++ {
				if rec.vcMask&(1<<uint(vc)) != 0 {
					e.net.Router(rec.router).SetVCFault(rec.port, vc, false)
				}
			}
		}
	}
	e.records = e.records[:0]
	for i := range e.baseTables {
		r := e.net.Router(noc.NodeID(i))
		for v := noc.VNet(0); v < noc.NumVNets; v++ {
			r.SetTable(v, e.baseTables[i][v])
			r.SetDatelineVNet(v, e.baseDateline[i][v])
		}
	}
}

// applyEvent applies one scheduled event's damage, appending its undo
// record. Damage is applied against the (base + earlier active events)
// wiring, so the result is a pure function of the active set.
func (e *Engine) applyEvent(idx int) {
	ev := e.sched[idx]
	switch ev.Kind {
	case KindLink:
		rec := damageRec{kind: KindLink, router: ev.Router, port: ev.Port}
		e.cutLink(&rec, ev.Router, ev.Port)
		e.records = append(e.records, rec)
	case KindRouter:
		e.damageRouter(ev.Router)
	case KindVC:
		e.damageVC(ev.Router, ev.Port, ev.VC)
	}
}

// cutLink severs the router-to-router channel leaving (router, port) and
// its reverse, recording both. A port with no router-to-router channel
// (local, ejection, already severed) is a deterministic no-op.
func (e *Engine) cutLink(rec *damageRec, router noc.NodeID, port int) {
	r := e.net.Router(router)
	if port >= r.NumPorts() {
		return
	}
	if out := r.OutputChannel(port); out != nil && out.From.Kind == noc.EndRouter && out.To.Kind == noc.EndRouter {
		rec.chans = append(rec.chans, chanRec{from: out.From, to: out.To, kind: out.Kind,
			latency: out.Latency, tiles: out.Tiles, intermediate: out.Intermediate})
		e.net.DisconnectOut(router, port)
	}
	if in := r.InputChannel(port); in != nil && in.From.Kind == noc.EndRouter && in.To.Kind == noc.EndRouter {
		rec.chans = append(rec.chans, chanRec{from: in.From, to: in.To, kind: in.Kind,
			latency: in.Latency, tiles: in.Tiles, intermediate: in.Intermediate})
		e.net.DisconnectOut(in.From.Router, in.From.Port)
	}
}

// damageRouter powers a router off: every incident router-to-router channel
// is severed, the local attachments detached, and the router disabled. A
// router that is already powered off (a cmesh spare, or struck twice) is a
// no-op record.
func (e *Engine) damageRouter(id noc.NodeID) {
	r := e.net.Router(id)
	rec := damageRec{kind: KindRouter, router: id}
	if r.Disabled() {
		e.records = append(e.records, rec)
		return
	}
	for p := 0; p < r.NumPorts(); p++ {
		if out := r.OutputChannel(p); out != nil && out.From.Kind == noc.EndRouter && out.To.Kind == noc.EndRouter {
			rec.chans = append(rec.chans, chanRec{from: out.From, to: out.To, kind: out.Kind,
				latency: out.Latency, tiles: out.Tiles, intermediate: out.Intermediate})
			e.net.DisconnectOut(id, p)
		}
	}
	for p := 0; p < r.NumPorts(); p++ {
		if in := r.InputChannel(p); in != nil && in.From.Kind == noc.EndRouter && in.To.Kind == noc.EndRouter {
			rec.chans = append(rec.chans, chanRec{from: in.From, to: in.To, kind: in.Kind,
				latency: in.Latency, tiles: in.Tiles, intermediate: in.Intermediate})
			e.net.DisconnectOut(in.From.Router, in.From.Port)
		}
	}
	rec.locals = e.net.LocalAttachments(id)
	e.net.DetachLocal(id)
	r.SetDisabled(true)
	rec.disabled = true
	e.records = append(e.records, rec)
}

// damageVC takes one flat output VC out of service, escalating to a link
// cut when the masked port would strand a whole virtual network (or a
// dateline class), or when Options.EscalateVCFaults demands it.
func (e *Engine) damageVC(id noc.NodeID, port, vc int) {
	r := e.net.Router(id)
	rec := damageRec{kind: KindVC, router: id, port: port}
	if port >= r.NumPorts() {
		e.records = append(e.records, rec)
		return
	}
	out := r.OutputChannel(port)
	if out == nil || out.From.Kind != noc.EndRouter || out.To.Kind != noc.EndRouter {
		e.records = append(e.records, rec)
		return
	}
	flat := vc % (noc.NumVNets * e.net.Cfg.VCsPerVNet)
	maskAfter := r.VCFaultMask(port) | 1<<uint(flat)
	if e.opts.EscalateVCFaults || e.maskFatal(id, maskAfter) {
		rec.escalated = true
		e.cutLink(&rec, id, port)
		e.records = append(e.records, rec)
		return
	}
	r.SetVCFault(port, flat, true)
	rec.vcMask = 1 << uint(flat)
	e.records = append(e.records, rec)
}

// maskFatal reports whether a dead-VC mask would strand packets on the
// port: a whole virtual network's flat range dead, or — under the base
// dateline classing — a whole dateline half dead, leaves some packet class
// with no grantable VC.
func (e *Engine) maskFatal(id noc.NodeID, mask uint64) bool {
	vcs := e.net.Cfg.VCsPerVNet
	for v := 0; v < noc.NumVNets; v++ {
		lo := v * vcs
		full := uint64(0)
		for k := 0; k < vcs; k++ {
			full |= 1 << uint(lo+k)
		}
		if mask&full == full {
			return true
		}
		if vcs > 1 && e.baseDateline[id][v] {
			half := vcs / 2
			lowHalf, highHalf := uint64(0), uint64(0)
			for k := 0; k < half; k++ {
				lowHalf |= 1 << uint(lo+k)
			}
			for k := half; k < vcs; k++ {
				highHalf |= 1 << uint(lo+k)
			}
			if mask&lowHalf == lowHalf || mask&highHalf == highHalf {
				return true
			}
		}
	}
	return false
}

// stallAll charges the Ts table-setup window to every live router after an
// application (tables and wiring just changed under it).
func (e *Engine) stallAll(now sim.Cycle) {
	for _, r := range e.net.Routers() {
		if !r.Disabled() {
			r.StallTables(now, e.opts.SetupCycles)
		}
	}
}
