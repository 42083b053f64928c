package main

import (
	"time"

	"adaptnoc"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// span is one interval at a layer boundary. Spans of one workload run
// share Workload and hang off its root through Parent (an index into the
// log, -1 for a root). A span that aggregates many short visits to a layer
// (one per simulated cycle) carries their summed time in BusyNs and their
// number in Count; a layer's self time is its duration, or BusyNs, minus
// what its children cover.
type span struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	BusyNs   int64  `json:"busy_ns,omitempty"`
	Count    int64  `json:"count,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing, which is how untraced runs stay untraced.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) begin(name string, parent int, workload string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, Workload: workload, StartNs: int64(time.Since(l.base))})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l != nil && id >= 0 {
		l.spans[id].EndNs = int64(time.Since(l.base))
	}
}

// aggregate records one span that sums n visits to a layer within
// [start, start+wall): busy is their total time.
func (l *spanLog) aggregate(name string, parent int, workload string, start time.Time, wall, busy time.Duration, n int64) {
	if l == nil || n == 0 {
		return
	}
	from := int64(start.Sub(l.base))
	l.spans = append(l.spans, span{
		Name: name, Parent: parent, Workload: workload,
		StartNs: from, EndNs: from + int64(wall), BusyNs: int64(busy), Count: n,
	})
}

// phase opens a child span of the run's root and returns its closer.
func (r *run) phase(name string) func() {
	id := r.spans.begin(name, r.root, r.res.Workload)
	return func() { r.spans.end(id) }
}

// layerTimes is host time booked to each layer over some cycles.
type layerTimes struct {
	Events time.Duration // kernel event dispatch (sim)
	Epoch  time.Duration // event dispatch on control-epoch cycles (core + power + rl + fabric kick-off)
	Noc    time.Duration // noc.Network.Tick
	System time.Duration // every ticker after the network: system.Machine (+ traffic.Source)
	Epochs int64
	Cycles int64
}

func (t layerTimes) total() time.Duration { return t.Events + t.Epoch + t.Noc + t.System }

func (t *layerTimes) add(o layerTimes) {
	t.Events += o.Events
	t.Epoch += o.Epoch
	t.Noc += o.Noc
	t.System += o.System
	t.Epochs += o.Epochs
	t.Cycles += o.Cycles
}

// probe splits every simulated cycle into kernel events -> noc tick ->
// system tick using three hooks any caller may install: a verifier that
// fires at the end of Network.Tick, a ticker registered after the
// simulation's own (so it runs last in a cycle), and an event that the
// ticker schedules for the next cycle. That event is scheduled after
// everything the cycle itself scheduled, so it fires after the next
// cycle's pending events; only events scheduled for the very cycle they
// fire in can run behind it, and those are booked to the network.
//
// A kernel cannot drop a ticker again, and a pending closure event makes a
// simulation refuse to checkpoint, so a probed Sim is used for the traced
// pass only and never saved.
type probe struct {
	kernel  *sim.Kernel
	epoch   sim.Cycle // 0 when the design has no epoch controller
	base    time.Time
	last    time.Duration
	armed   bool
	fire    func(sim.Cycle) // afterEvents, bound once so scheduling it allocates nothing
	current layerTimes
}

func attachProbe(s *adaptnoc.Sim) *probe {
	p := &probe{kernel: s.Kernel, base: time.Now()}
	if s.Ctl != nil || s.OSCAR != nil {
		p.epoch = sim.Cycle(s.Cfg.EpochCycles)
	}
	p.fire = p.afterEvents
	s.Net.SetVerifier(1, p.afterNoc)
	s.Kernel.Register(sim.TickerFunc(p.afterTickers))
	return p
}

// begin arms the probe at a cycle boundary and starts a fresh account.
func (p *probe) begin() {
	p.current = layerTimes{}
	if !p.armed {
		p.armed = true
		p.kernel.After(0, p.fire)
	}
	p.last = time.Since(p.base)
}

// take returns the account since begin.
func (p *probe) take() layerTimes { return p.current }

func (p *probe) afterEvents(now sim.Cycle) {
	t := time.Since(p.base)
	if p.epoch > 0 && now%p.epoch == 0 {
		p.current.Epoch += t - p.last
		p.current.Epochs++
	} else {
		p.current.Events += t - p.last
	}
	p.last = t
}

func (p *probe) afterNoc(*noc.Network, sim.Cycle) error {
	t := time.Since(p.base)
	p.current.Noc += t - p.last
	p.last = t
	return nil
}

func (p *probe) afterTickers(sim.Cycle) {
	t := time.Since(p.base)
	p.current.System += t - p.last
	p.last = t
	p.current.Cycles++
	p.kernel.After(1, p.fire)
}
