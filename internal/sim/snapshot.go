package sim

// Checkpoint support for the kernel layer: the clock, the future-event
// list, RNG streams, and the statistics containers all expose their state
// explicitly here so the layers above can round-trip a simulation.

import (
	"sort"

	"adaptnoc/internal/snap"
)

// State returns the generator's exact internal state.
func (r *RNG) State() [4]uint64 { return r.s }

// SnapState is the generator's checkpoint record: its four state words.
func (r *RNG) SnapState(c *snap.Codec) {
	for i := range r.s {
		c.U64(&r.s[i])
	}
}

// SnapState is the accumulator's exact running state, bit patterns
// included, so a restored accumulator continues producing identical means
// and variances.
func (a *Accumulator) SnapState(c *snap.Codec) {
	c.I64(&a.n)
	c.F64(&a.mean)
	c.F64(&a.m2)
	c.F64(&a.min)
	c.F64(&a.max)
}

// SnapState is the histogram's shape and counts; decoding replaces both.
func (h *Histogram) SnapState(c *snap.Codec) {
	c.I64(&h.width)
	c.I64s(&h.buckets)
	c.I64(&h.over)
	h.acc.SnapState(c)
	if c.Decoding() {
		if h.width <= 0 {
			c.Failf("sim: histogram width %d", h.width)
		}
		if len(h.buckets) == 0 {
			c.Failf("sim: histogram with no buckets")
		}
	}
}

// SnapState is the kernel's clock and future-event list. Decoding runs on
// a freshly constructed kernel: the clock jumps to the checkpointed cycle
// and the event list is rebuilt; tickers and op handlers are
// construction-time wiring and must already be registered.
//
// Only descriptor events (ScheduleOp/AfterOp) are serializable; a pending
// closure event fails the encode because a function value cannot be
// rebound in another process — the caller surfaces "not checkpointable
// here" rather than silently dropping the event.
//
// Events are written sorted by (at, seq). The heap's internal array layout
// depends on insertion history, but its pop order is a pure function of
// the (at, seq) keys, so the canonical sorted order restores identical
// behaviour and gives byte-identical snapshots regardless of layout.
func (k *Kernel) SnapState(c *snap.Codec) {
	var evs eventHeap
	if !c.Decoding() {
		evs = append(evs, k.events...)
		sort.Slice(evs, evs.less)
	}
	// Part-mark kinds inside the kernel section (delta alignment only):
	// kind 0 is the clock header, kind 1 keys each event by its sequence
	// number, which is stable for an event that merely survives between
	// two snapshots and pairs positionally when it reschedules.
	c.Mark(snap.PartKey(0, 0))
	c.I64((*int64)(&k.now))
	c.I64(&k.seq)
	n := c.Count(len(evs), 8*5+4)
	if c.Decoding() {
		k.events = make(eventHeap, 0, n)
	}
	for i := 0; i < n; i++ {
		var ev event
		if !c.Decoding() {
			ev = evs[i]
			if ev.fn != nil {
				c.Failf("sim: pending closure event at cycle %d cannot be checkpointed", ev.at)
			}
		}
		c.Mark(snap.PartKey(1, uint64(ev.seq)))
		c.I64((*int64)(&ev.at))
		c.I64(&ev.seq)
		c.U32((*uint32)(&ev.op))
		for j := range ev.args {
			c.I64(&ev.args[j])
		}
		if c.Decoding() {
			switch {
			case ev.op == 0:
				c.Failf("sim: checkpoint contains closure event")
			case k.ops[ev.op] == nil:
				c.Failf("sim: event references unregistered op %d", ev.op)
			case ev.at < k.now:
				c.Failf("sim: event at cycle %d behind restored clock %d", ev.at, k.now)
			case ev.seq > k.seq:
				c.Failf("sim: event seq %d ahead of restored counter %d", ev.seq, k.seq)
			}
			k.events.push(ev)
		}
	}
}
