// Package sim provides the deterministic cycle-driven simulation kernel
// underlying the Adapt-NoC model: a clock, an ordered set of clocked
// components, a lightweight future-event list for timed callbacks, and a
// seeded, splittable random number generator.
//
// The kernel is cycle-driven rather than event-driven: network-on-chip
// models advance nearly every component nearly every cycle, so a priority
// queue of events would cost more than it saves. Components implement
// Ticker and are stepped in registration order once per cycle; the event
// list exists for sparse timed actions (reconfiguration waves, power-gating
// wake-ups, epoch boundaries).
package sim

import (
	"fmt"
)

// Cycle is a simulation timestamp in clock cycles.
type Cycle int64

// Ticker is a clocked component. Tick is invoked exactly once per cycle in
// the order components were registered. Components must communicate through
// latched state (write this cycle, visible next cycle) when ordering between
// them would otherwise matter.
type Ticker interface {
	// Tick advances the component by one cycle. now is the cycle being
	// executed.
	Tick(now Cycle)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(now Cycle)

// Tick implements Ticker.
func (f TickerFunc) Tick(now Cycle) { f(now) }

// event is a scheduled callback: either a closure (fn != nil) or a
// descriptor referencing a registered operation. Descriptor events are the
// serializable form — a checkpoint can write (at, seq, op, args) and a
// restored kernel rebinds op to the handler registered under the same ID,
// which a closure cannot offer.
type event struct {
	at   Cycle
	seq  int64 // FIFO tie-break for events scheduled at the same cycle
	fn   func(now Cycle)
	op   OpID
	args [3]int64
}

// OpID names a registered operation handler. IDs are global constants
// agreed between the packages that schedule them (see RegisterOp); 0 is
// reserved for "closure event".
type OpID uint32

// OpHandler executes a descriptor event. args carry the operation's
// integer operands (object IDs, cycles) exactly as scheduled.
type OpHandler func(now Cycle, args [3]int64)

// Kernel drives the simulation. The zero value is not usable; construct
// with NewKernel.
type Kernel struct {
	now     Cycle
	tickers []Ticker
	events  eventHeap
	seq     int64
	stopped bool
	ops     map[OpID]OpHandler
}

// NewKernel returns a kernel positioned at cycle 0 with no components.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current cycle. During a Tick or event callback it is the
// cycle being executed.
func (k *Kernel) Now() Cycle { return k.now }

// Register adds a clocked component. Components tick in registration order.
func (k *Kernel) Register(t Ticker) {
	if t == nil {
		panic("sim: Register(nil)")
	}
	k.tickers = append(k.tickers, t)
}

// Schedule runs fn at the given absolute cycle, before that cycle's tickers.
// Scheduling in the past (at < Now) panics: it would silently reorder time.
// Scheduling at the current cycle runs fn later within the same cycle only
// if the kernel has not yet dispatched events for it; from inside a tick it
// panics, so use At(0) offsets of at least 1 from tickers.
func (k *Kernel) Schedule(at Cycle, fn func(now Cycle)) {
	if fn == nil {
		panic("sim: Schedule(nil)")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: Schedule at cycle %d before now %d", at, k.now))
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, fn: fn})
}

// After runs fn delay cycles from now. delay must be >= 1 when called from
// inside a Tick.
func (k *Kernel) After(delay Cycle, fn func(now Cycle)) {
	k.Schedule(k.now+delay, fn)
}

// RegisterOp binds an operation ID to its handler. Every component that
// schedules descriptor events registers its handlers at construction, so a
// freshly built simulation — including one being restored from a
// checkpoint — always carries the full registry before any event fires.
// Re-registering an ID panics: it would silently change what a pending
// event does.
func (k *Kernel) RegisterOp(op OpID, h OpHandler) {
	if op == 0 {
		panic("sim: RegisterOp(0) — 0 is reserved for closure events")
	}
	if h == nil {
		panic("sim: RegisterOp(nil handler)")
	}
	if k.ops == nil {
		k.ops = make(map[OpID]OpHandler)
	}
	if _, dup := k.ops[op]; dup {
		panic(fmt.Sprintf("sim: op %d registered twice", op))
	}
	k.ops[op] = h
}

// ScheduleOp schedules a descriptor event at the given absolute cycle with
// the same ordering semantics as Schedule. The op need not be registered
// yet at scheduling time, only by the time the event fires.
func (k *Kernel) ScheduleOp(at Cycle, op OpID, a0, a1, a2 int64) {
	if op == 0 {
		panic("sim: ScheduleOp(0)")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: ScheduleOp at cycle %d before now %d", at, k.now))
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, op: op, args: [3]int64{a0, a1, a2}})
}

// AfterOp schedules a descriptor event delay cycles from now.
func (k *Kernel) AfterOp(delay Cycle, op OpID, a0, a1, a2 int64) {
	k.ScheduleOp(k.now+delay, op, a0, a1, a2)
}

// Stop makes the current Run return after finishing the current cycle.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes exactly one cycle: pending events at the current cycle, then
// every ticker, then advances the clock.
func (k *Kernel) Step() {
	for len(k.events) > 0 && k.events[0].at == k.now {
		ev := k.events.pop()
		if ev.fn != nil {
			ev.fn(k.now)
			continue
		}
		h, ok := k.ops[ev.op]
		if !ok {
			panic(fmt.Sprintf("sim: event fired for unregistered op %d", ev.op))
		}
		h(k.now, ev.args)
	}
	if len(k.events) > 0 && k.events[0].at < k.now {
		panic("sim: event left behind the clock")
	}
	for _, t := range k.tickers {
		t.Tick(k.now)
	}
	k.now++
}

// Run executes cycles until the clock reaches until (exclusive) or Stop is
// called. It returns the cycle at which it stopped.
func (k *Kernel) Run(until Cycle) Cycle {
	k.stopped = false
	for k.now < until && !k.stopped {
		k.Step()
	}
	return k.now
}

// RunFor executes n additional cycles (or fewer if Stop is called).
func (k *Kernel) RunFor(n Cycle) Cycle { return k.Run(k.now + n) }

// eventHeap is a binary min-heap ordered by (at, seq). A hand-rolled heap
// avoids the interface boxing of container/heap on this hot-ish path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
