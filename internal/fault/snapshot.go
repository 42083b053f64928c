package fault

import "adaptnoc/internal/snap"

// Checkpoint support. The engine's serialized state is tiny — the drain
// state machine, the pending and active event sets, and the drop counters —
// because the damaged wiring itself is reconstructible: the fabric is
// frozen from the first strike, so the fabric section replays the exact
// base topology, and Restore re-applies the active events against it (the
// same pure function as a live apply). The network section restored
// afterwards then overlays dynamic state (and validates the channel set,
// which only matches if this replay produced identical wiring).

// SnapState is the engine's dynamic state. Decoding overlays it onto a
// freshly constructed engine carrying the same schedule and then
// re-applies the active damage against the fabric-replayed base wiring; it
// must run after the fabric section and before the network section.
func (e *Engine) SnapState(c *snap.Codec) {
	version := 1
	if c.Int(&version); version != 1 {
		c.Failf("fault: unknown fault section version %d", version)
	}
	frozen := e.fab != nil && e.fab.Frozen()
	c.Bool(&frozen)
	c.Bool(&e.draining)
	c.I64((*int64)(&e.drainStart))
	c.Bool(&e.gatedAll)
	c.Len(len(e.savedGates), "fault: NI gates")
	for i := range e.savedGates {
		c.Bool(&e.savedGates[i])
	}
	n := c.Count(len(e.pending), 2)
	if c.Decoding() {
		e.pending = make([]pendingAction, n)
	}
	for i := range e.pending {
		pa := &e.pending[i]
		c.Int(&pa.idx)
		if c.Decoding() && (pa.idx < 0 || pa.idx >= len(e.sched)) {
			c.Failf("fault: pending action references event %d of %d", pa.idx, len(e.sched))
		}
		c.Bool(&pa.repair)
	}
	if c.Decoding() {
		e.active = make([]bool, len(e.sched))
	}
	c.Len(len(e.active), "fault: schedule events")
	for i := range e.active {
		c.Bool(&e.active[i])
	}
	c.Bool(&e.baseTaken)
	c.I64(&e.Strikes)
	c.I64(&e.Repairs)
	dropped, flitsDropped := e.net.TotalDropped, e.net.TotalFlitsDropped
	c.I64(&dropped)
	c.I64(&flitsDropped)
	if !c.Decoding() || c.Err() != nil {
		return
	}

	if frozen && e.fab != nil {
		e.fab.Freeze()
	}
	if e.baseTaken {
		e.captureBase()
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
		e.net.SetFaultGuard(true)
	}
	e.net.TotalDropped = dropped
	e.net.TotalFlitsDropped = flitsDropped
}
