package traffic

// The Source layer decouples "what a core does" from "how the machine
// moves packets". A Source owns the per-core execution state (retired
// instructions, phase position, RNG streams for the synthetic profiles;
// dependency graphs for trace replay) and turns one simulated cycle into
// a stream of injection events; internal/system owns everything on the
// other side of the network interface (transactions, memory controllers,
// outstanding-request windows, delivery accounting).
//
// Determinism contract (see DESIGN.md §12): a Source must be a pure
// function of its construction arguments, its serialized state, and the
// sequence of Advance/Retire calls. It must not read wall clocks, map
// iteration order, or any state the machine does not expose through View
// — so a run, a restored checkpoint of the run, and a resharded run all
// draw identical event streams.

import (
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// Stats are the instruction/cache observations a Source feeds into the
// owning application's epoch window and lifetime totals (the portion of
// the RL state vector the workload produces; packet and latency counters
// stay machine-owned).
type Stats struct {
	Retired   int64
	L1DMisses int64
	L1IMisses int64
	L2Misses  int64 // L2 -> memory controller accesses
}

// View is the machine-side state a Source may consult while advancing:
// the per-core outstanding-request windows (closed-loop throttling) and
// the counter blocks it folds observations into. The pointers returned by
// Stats are stable for the application's lifetime.
type View interface {
	// Outstanding returns core i's in-flight memory request count.
	Outstanding(core int) int
	// Deliverable reports whether a from→to request injection would be
	// accepted by the network rather than synchronously fault-dropped.
	// A drop at injection immediately releases the outstanding slot, so
	// a source must not count such an issue against the MLP window —
	// exactly the behaviour the pre-Source machine had, where the drop
	// callback decremented the counter mid-burst.
	Deliverable(from, to noc.NodeID) bool
	// Stats returns the epoch-window and lifetime counter blocks.
	Stats() (win, total *Stats)
}

// EventKind discriminates Source events.
type EventKind uint8

// The event kinds a Source can emit.
const (
	// EvCoherence is a fire-and-forget control message between two cores.
	EvCoherence EventKind = iota
	// EvMem starts a memory transaction: request to an L2 slice,
	// optionally spilling to a memory controller, data reply back.
	EvMem
	// EvPacket injects one raw pre-routed packet (trace replay); Ref is
	// handed back through Retirer.Retire when the packet leaves the
	// network.
	EvPacket
)

// Event is one injection a Source asks the machine to perform.
type Event struct {
	Kind EventKind

	// Core is the issuing core index (EvCoherence, EvMem).
	Core int
	// Peer is the destination core index (EvCoherence).
	Peer int

	// Slice, NeedsMC, MC describe an EvMem transaction's path.
	Slice   noc.NodeID
	NeedsMC bool
	MC      noc.NodeID

	// Src, Dst, Data, Ref describe an EvPacket injection. Data selects
	// the multi-flit data class on the reply vnet (vs a single-flit
	// control packet on the request vnet).
	Src, Dst noc.NodeID
	Data     bool
	Ref      uint64
}

// Source produces a core set's instruction/memory behaviour, one cycle at
// a time. Advance simulates the cycle and reports whether the workload
// has fully completed (finite sources only); NextEvent then drains the
// cycle's injection events in issue order.
type Source interface {
	// Bind attaches the machine-side view. Called once, before the first
	// Advance.
	Bind(v View)
	// Advance runs one cycle and returns true when a finite workload has
	// both consumed its work and drained its outstanding requests.
	Advance(now sim.Cycle) (done bool)
	// NextEvent pops the next buffered event of the current cycle.
	NextEvent() (Event, bool)
	// Finite reports whether the workload ever completes on its own.
	Finite() bool
	// Progress returns a monotone completion indicator (profile sources:
	// mean retired instructions per core; traces: retired packets).
	Progress() float64
	// StallCycles returns cumulative full-window stall cycles.
	StallCycles() int64
	// SnapState is the source's dynamic state as a checkpoint record;
	// decoding runs on an identically constructed source.
	SnapState(c *snap.Codec)
}

// Retirer is implemented by sources that must observe packet retirement
// (trace replay releases dependent packets on it). The machine calls it
// for every EvPacket delivery or fault drop.
type Retirer interface {
	Retire(ref uint64, now sim.Cycle)
}

// Layout is the tile geometry a PhaseSource draws destinations from. The
// owning application keeps the struct up to date in place (MC sharing is
// wired after construction), so the source always sees the live MC sets.
type Layout struct {
	// CoreTiles holds one tile per core, in core order.
	CoreTiles []noc.NodeID
	// L2Tiles are the slice homes (every region tile).
	L2Tiles []noc.NodeID
	// HotSlice is the home of hotspot-skewed accesses.
	HotSlice noc.NodeID
	// MCTiles are the app's own memory controllers.
	MCTiles []noc.NodeID
	// ForeignMCs are shared controllers in adjacent subNoCs; ForeignFrac
	// of off-chip accesses go there.
	ForeignMCs  []noc.NodeID
	ForeignFrac float64
}

// phaseThresholds pre-scales a phase's per-instruction event rates to
// 21-bit integer thresholds so one Uint64 draw decides the L1I miss,
// coherence message, and L1D access events together (hot path).
type phaseThresholds struct {
	l1i, coh, mem uint32
}

const thresholdBits = 21

func makeThresholds(ph Phase) phaseThresholds {
	scale := func(p float64) uint32 {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		return uint32(p * float64(uint64(1)<<thresholdBits))
	}
	return phaseThresholds{
		l1i: scale(ph.L1IMissRate),
		coh: scale(ph.CoherencePerKInstr / 1000.0),
		mem: scale(ph.MemFrac),
	}
}

// phaseCore is one core's execution position inside a PhaseSource.
type phaseCore struct {
	rng        *sim.RNG
	retired    int64
	phaseIdx   int
	phaseInstr int64
	ipcAcc     float64
	stall      int64
	issued     int // EvMem events emitted this Advance (not serialized)
}

// PhaseSource drives cores from a synthetic phase-machine Profile — the
// Table II benchmark stand-ins. It reproduces, draw for draw, the
// injection behaviour the phase logic had when it lived inside
// internal/system, so profile-driven runs are byte-identical across the
// refactor.
type PhaseSource struct {
	prof       Profile
	budget     int64 // per-core instruction budget; 0 = run forever
	layout     *Layout
	thresholds []phaseThresholds

	rng   *sim.RNG // parent stream the per-core streams were split from
	cores []phaseCore

	view       View
	win, total *Stats

	events []Event
	evHead int
}

// NewPhaseSource builds a profile-driven source over a layout. Per-core
// RNG streams are split off rng keyed by core tile, in core order — the
// exact split sequence the pre-Source machine performed, so equal seeds
// keep producing equal runs.
func NewPhaseSource(prof Profile, budget int64, lay *Layout, rng *sim.RNG) *PhaseSource {
	if len(prof.Phases) == 0 {
		panic("traffic: profile with no phases")
	}
	if len(lay.CoreTiles) == 0 {
		panic("traffic: layout with no core tiles")
	}
	s := &PhaseSource{prof: prof, budget: budget, layout: lay, rng: rng}
	for _, ph := range prof.Phases {
		s.thresholds = append(s.thresholds, makeThresholds(ph))
	}
	s.cores = make([]phaseCore, len(lay.CoreTiles))
	for i, t := range lay.CoreTiles {
		s.cores[i].rng = rng.Split(uint64(t))
	}
	return s
}

// Bind implements Source.
func (s *PhaseSource) Bind(v View) {
	s.view = v
	s.win, s.total = v.Stats()
}

// Finite implements Source: a source with an instruction budget ends.
func (s *PhaseSource) Finite() bool { return s.budget > 0 }

// Progress implements Source: mean retired instructions per core.
func (s *PhaseSource) Progress() float64 {
	var sum int64
	for i := range s.cores {
		sum += s.cores[i].retired
	}
	return float64(sum) / float64(len(s.cores))
}

// StallCycles implements Source.
func (s *PhaseSource) StallCycles() int64 {
	var sum int64
	for i := range s.cores {
		sum += s.cores[i].stall
	}
	return sum
}

// Advance implements Source: every core retires up to IPC instructions
// and the per-instruction events are buffered in issue order.
func (s *PhaseSource) Advance(now sim.Cycle) bool {
	s.events = s.events[:0]
	s.evHead = 0
	done := s.budget > 0
	for ci := range s.cores {
		c := &s.cores[ci]
		c.issued = 0
		s.advanceCore(ci, c)
		if done && (c.retired < s.budget || s.view.Outstanding(ci)+c.issued > 0) {
			done = false
		}
	}
	return done
}

// NextEvent implements Source.
func (s *PhaseSource) NextEvent() (Event, bool) {
	if s.evHead >= len(s.events) {
		return Event{}, false
	}
	ev := s.events[s.evHead]
	s.evHead++
	return ev, true
}

// advanceCore is the hot loop. The draw order is load-bearing: one Uint64
// whose disjoint 21-bit fields decide the L1I-miss, coherence, and
// L1D-access events, then Bernoulli(L1MissRate), then the destination
// draws inside emitMem — any reordering changes every downstream golden
// file.
func (s *PhaseSource) advanceCore(ci int, c *phaseCore) {
	if s.view.Outstanding(ci) >= s.prof.MLP {
		c.stall++
		return
	}
	if s.budget > 0 && c.retired >= s.budget {
		return
	}
	c.ipcAcc += s.prof.IPC
	n := int(c.ipcAcc)
	c.ipcAcc -= float64(n)
	const mask = (uint64(1) << thresholdBits) - 1
	for i := 0; i < n; i++ {
		ph := &s.prof.Phases[c.phaseIdx]
		th := &s.thresholds[c.phaseIdx]
		c.retired++
		s.win.Retired++
		s.total.Retired++
		c.phaseInstr++
		if c.phaseInstr >= ph.Instructions {
			c.phaseInstr = 0
			c.phaseIdx = (c.phaseIdx + 1) % len(s.prof.Phases)
		}

		// One draw decides the three independent per-instruction events
		// (disjoint 21-bit fields).
		u := c.rng.Uint64()
		if uint32(u&mask) < th.l1i {
			s.win.L1IMisses++
			s.total.L1IMisses++
		}
		if uint32((u>>thresholdBits)&mask) < th.coh {
			s.emitCoherence(ci, c)
		}
		if uint32((u>>(2*thresholdBits))&mask) < th.mem && c.rng.Bernoulli(ph.L1MissRate) {
			s.win.L1DMisses++
			s.total.L1DMisses++
			s.emitMem(ci, c, ph)
			if s.view.Outstanding(ci)+c.issued >= s.prof.MLP {
				break
			}
		}
	}
}

// emitCoherence buffers a fire-and-forget control message to a peer core.
func (s *PhaseSource) emitCoherence(ci int, c *phaseCore) {
	n := len(s.layout.CoreTiles)
	if n < 2 {
		return
	}
	peer := c.rng.Intn(n)
	if peer == ci {
		return
	}
	s.events = append(s.events, Event{Kind: EvCoherence, Core: ci, Peer: peer})
}

// emitMem buffers an L1-miss transaction: home slice (hotspot-skewed
// striping), then the L2-miss spill decision, then the controller choice.
func (s *PhaseSource) emitMem(ci int, c *phaseCore, ph *Phase) {
	lay := s.layout
	var slice noc.NodeID
	if ph.Hotspot > 0 && c.rng.Bernoulli(ph.Hotspot) {
		slice = lay.HotSlice
	} else {
		slice = lay.L2Tiles[c.rng.Intn(len(lay.L2Tiles))]
	}
	ev := Event{Kind: EvMem, Core: ci, Slice: slice}
	if c.rng.Bernoulli(ph.L2MissRate) {
		ev.NeedsMC = true
		if len(lay.ForeignMCs) > 0 && c.rng.Bernoulli(lay.ForeignFrac) {
			ev.MC = lay.ForeignMCs[c.rng.Intn(len(lay.ForeignMCs))]
		} else {
			ev.MC = lay.MCTiles[c.rng.Intn(len(lay.MCTiles))]
		}
		s.win.L2Misses++
		s.total.L2Misses++
	}
	// A request the faulty fabric drops at injection releases its
	// outstanding slot in the same cycle, so it must not count against
	// the MLP window (local slices never enqueue a request packet).
	tile := lay.CoreTiles[ci]
	if slice == tile || s.view.Deliverable(tile, slice) {
		c.issued++
	}
	s.events = append(s.events, ev)
}

// Part-mark kinds inside the source checkpoint section (delta alignment
// only, never serialized; see snap.Part).
const (
	// PartSrcApp marks one application's source blob; the machine's
	// source section emits it before each Source.SnapState.
	PartSrcApp = iota
	partSrcCore
)

// SnapState implements Source: the parent RNG stream and every core's
// execution position.
func (s *PhaseSource) SnapState(c *snap.Codec) {
	s.rng.SnapState(c)
	c.Len(len(s.cores), "traffic: phase source cores")
	for ci := range s.cores {
		pc := &s.cores[ci]
		c.Mark(snap.PartKey(partSrcCore, uint64(ci)))
		c.I64(&pc.retired)
		c.Int(&pc.phaseIdx)
		if c.Decoding() && (pc.phaseIdx < 0 || pc.phaseIdx >= len(s.prof.Phases)) {
			c.Failf("traffic: phase index %d out of range", pc.phaseIdx)
		}
		c.I64(&pc.phaseInstr)
		c.F64(&pc.ipcAcc)
		c.I64(&pc.stall)
		pc.rng.SnapState(c)
	}
}
