package adaptnoc_test

// One seeded generator for the determinism identities. A seed draws a
// configuration — design, workload, topology pins, RL mode, fault
// campaign, forced tree round trips — and a run plan, and one body
// checks every identity on that draw: the shard count is an execution
// knob (serial and sharded runs end byte-identical), checkpointing is a
// pure read, a restored run resumes in lockstep at another shard count,
// a base plus delta frames reconstructs the full blob at every tip, the
// invariant checker holds every cycle, and the routing stays
// deadlock-free.
//
// Plain `go test` replays the f.Add seeds; TestScenarioCoverage pins
// which cases they draw. The long exploration is
//
//	go test -run '^$' -fuzz '^FuzzScenario$' .
//
// and any input it finds failing lands in testdata/fuzz/FuzzScenario/,
// which plain `go test` replays from then on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/deadlock"
	"adaptnoc/internal/fabric"
	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/traffic"
)

// scenarioSeeds is the corpus plain `go test` replays; TestScenarioCoverage
// names the seed that draws each required case. 508, 1533 and 33 first
// failed on the code before them: a restore dropped the arbitration
// pointer of an output a fault or a switch had detached (508, 1533), and
// summed link energy in a different channel order than the run it
// resumed (33).
var scenarioSeeds = []uint64{
	508, 1533, 33,
	1125, 834, 603, 1127, 805, 637, 860, 771, 152, 388, 557, 787, 497, 411, 721,
}

// scenario is one draw: the configuration and the plan the body runs it
// through.
type scenario struct {
	Seed   uint64
	Config adaptnoc.Config
	// Trace replaces every app's profile with its stream from
	// scenarioTrace (same placements, pins kept).
	Trace bool
	Plan  scenarioPlan
}

type scenarioPlan struct {
	// Shards is leg B's shard count; RestoreShards is leg C's.
	Shards, RestoreShards int
	// Checkpoint is where leg A takes its full checkpoint; Deltas are the
	// cycles of its chained delta frames after it.
	Checkpoint adaptnoc.Cycle
	Deltas     []adaptnoc.Cycle
	// Inject, when set, delivers the fault campaign through
	// Sim.ApplyFaultSchedule at cycle InjectAt instead of Config.Faults.
	Inject   []fault.Event `json:",omitempty"`
	InjectAt adaptnoc.Cycle
	// Trip, when set, is a forced Sim.Reconfigure round trip through Tree.
	Trip *treeTrip `json:",omitempty"`
	End  adaptnoc.Cycle
}

// treeTrip switches app App to Tree at cycle To and to Back at cycle
// Return, each once the subNoC is active.
type treeTrip struct {
	App        int
	To, Return adaptnoc.Cycle
	Back       adaptnoc.Kind
}

// scenarioTraceCycles is the length of the recording trace draws replay.
const scenarioTraceCycles = 3000

var scenarioKinds = []adaptnoc.Kind{adaptnoc.Mesh, adaptnoc.CMesh, adaptnoc.Torus, adaptnoc.Tree, adaptnoc.TorusTree}

// drawScenario turns a seed into a scenario without simulating anything.
func drawScenario(seed uint64) scenario {
	rng := sim.NewRNG(seed)
	pick := func(n int) int { return rng.Intn(n) }
	sc := scenario{Seed: seed}
	cfg := &sc.Config
	cfg.Design = adaptnoc.Design(pick(int(adaptnoc.NumDesigns)))
	cfg.Seed = uint64(pick(1 << 16))
	cfg.EpochCycles = []int{2000, 5000}[pick(2)]
	switch pick(5) {
	case 0, 1:
		cfg.Apps = adaptnoc.DefaultMixed(0)
	case 2, 3:
		gpus, cpus := traffic.GPUProfiles(), traffic.CPUProfiles()
		cfg.Apps = adaptnoc.MixedWorkload(gpus[pick(len(gpus))].Name,
			cpus[pick(len(cpus))].Name, cpus[pick(len(cpus))].Name, 0)
	default:
		// The recording's placements are DefaultMixed's; the profiles are
		// swapped for its streams when the scenario runs.
		cfg.Apps = adaptnoc.DefaultMixed(0)
		sc.Trace = true
	}
	switch cfg.Design {
	case adaptnoc.DesignAdaptNoRL:
		for i := range cfg.Apps {
			cfg.Apps[i].Static = scenarioKinds[pick(len(scenarioKinds))]
		}
	case adaptnoc.DesignAdaptNoC:
		switch pick(3) {
		case 1:
			cfg.RL.Train = true
		case 2:
			cfg.RL.Train, cfg.UseQTable = true, true
		}
	}

	p := &sc.Plan
	p.Shards = []int{2, 4}[pick(2)]
	p.RestoreShards = 6 - p.Shards
	p.End = adaptnoc.Cycle(3000 + pick(3001))

	var faults []fault.Event
	if pick(2) == 0 {
		for n := 1 + pick(3); n > 0; n-- {
			ev := fault.Event{Cycle: int64(300 + pick(int(p.End)-1200)), Router: noc.NodeID(pick(64))}
			switch pick(3) {
			case 0:
				ev.Kind, ev.Port = fault.KindLink, 1+pick(4)
			case 1:
				ev.Kind = fault.KindRouter
			default:
				ev.Kind, ev.Port, ev.VC = fault.KindVC, 1+pick(4), pick(4)
			}
			if pick(5) < 2 {
				ev.Repair = int64(300 + pick(1500))
			}
			faults = append(faults, ev)
		}
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].Cycle < faults[j].Cycle })
	}

	// The checkpoint leaves room for at least one delta frame; half the
	// faulted draws put it a few hundred cycles after a strike, inside
	// the drain and heal window.
	latest := p.End - 1000
	p.Checkpoint = adaptnoc.Cycle(500 + pick(int(latest)-500))
	if len(faults) > 0 && pick(2) == 0 {
		p.Checkpoint = min(adaptnoc.Cycle(faults[pick(len(faults))].Cycle)+adaptnoc.Cycle(100+pick(300)), latest)
	}
	every := adaptnoc.Cycle([]int{300, 500, 700}[pick(3)])
	for i, n := adaptnoc.Cycle(1), 1+pick(3); i <= adaptnoc.Cycle(n); i++ {
		if at := p.Checkpoint + i*every; at < p.End {
			p.Deltas = append(p.Deltas, at)
		}
	}

	// A third of the campaigns arrive mid-chain through
	// ApplyFaultSchedule, striking after they are applied.
	if len(faults) > 0 && pick(3) == 0 {
		p.InjectAt = p.Checkpoint + every/2
		for i := range faults {
			faults[i].Cycle = int64(p.InjectAt) + 200 + int64(pick(int(p.End-p.InjectAt)-300))
		}
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].Cycle < faults[j].Cycle })
		p.Inject = faults
	} else {
		cfg.Faults = faults
	}

	if (cfg.Design == adaptnoc.DesignAdaptNoRL || cfg.Design == adaptnoc.DesignAdaptNoC) && pick(2) == 0 {
		trip := &treeTrip{App: pick(len(cfg.Apps)), To: adaptnoc.Cycle(200 + pick(int(p.End)-1500))}
		trip.Return = trip.To + adaptnoc.Cycle(400+pick(800))
		trip.Back = cfg.Apps[trip.App].Static
		if trip.Back == adaptnoc.Tree || trip.Back == adaptnoc.TorusTree {
			trip.Back = adaptnoc.Mesh
		}
		p.Trip = trip
	}

	// Half the plans add a frame soon after the checkpoint: a router that
	// parked just before it still has credits in flight, and the frame
	// taken then must reconstruct the full blob and restore.
	if pick(2) == 0 {
		p.Deltas = append([]adaptnoc.Cycle{p.Checkpoint + adaptnoc.Cycle(10+pick(90))}, p.Deltas...)
	}
	return sc
}

// String is the draw as an indented JSON Config plus the plan. A trace
// draw prints its placeholder profiles; the body replays scenarioTrace.
func (sc scenario) String() string {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return fmt.Sprintf("seed %d: %v", sc.Seed, err)
	}
	return string(b)
}

var (
	scenarioTraceOnce sync.Once
	scenarioTraceBlob []byte
)

// scenarioTrace is the recording trace draws replay, made once per test
// binary.
func scenarioTrace(t testing.TB) []byte {
	scenarioTraceOnce.Do(func() { scenarioTraceBlob = recordMixedTrace(t, scenarioTraceCycles) })
	if scenarioTraceBlob == nil {
		t.Fatal("recording the scenario trace failed")
	}
	return scenarioTraceBlob
}

// config is the configuration the legs build: the draw's, with a trace
// draw's profiles swapped for the recorded streams.
func (sc scenario) config(t testing.TB) adaptnoc.Config {
	cfg := sc.Config
	cfg.Apps = append([]adaptnoc.AppSpec(nil), cfg.Apps...)
	if sc.Trace {
		apps, _, _, err := adaptnoc.TraceWorkload(scenarioTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.Apps {
			static := cfg.Apps[i].Static
			cfg.Apps[i] = apps[i]
			cfg.Apps[i].Static = static
		}
	}
	return cfg
}

// A step is one plan action at a cycle.
type stepKind int

const (
	stepSwitch     stepKind = iota // Reconfigure(app, to) once the subNoC is active
	stepInject                     // ApplyFaultSchedule(plan.Inject)
	stepCheckpoint                 // leg A's full checkpoint, leg C's start
	stepDelta                      // leg A's chained delta frame
)

type step struct {
	at   adaptnoc.Cycle
	kind stepKind
	app  int
	to   adaptnoc.Kind
}

func (p scenarioPlan) steps() []step {
	steps := []step{{at: p.Checkpoint, kind: stepCheckpoint}}
	for _, at := range p.Deltas {
		steps = append(steps, step{at: at, kind: stepDelta})
	}
	if p.Inject != nil {
		steps = append(steps, step{at: p.InjectAt, kind: stepInject})
	}
	if tr := p.Trip; tr != nil {
		steps = append(steps,
			step{at: tr.To, kind: stepSwitch, app: tr.App, to: adaptnoc.Tree},
			step{at: tr.Return, kind: stepSwitch, app: tr.App, to: tr.Back})
	}
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].at != steps[j].at {
			return steps[i].at < steps[j].at
		}
		return steps[i].kind < steps[j].kind
	})
	return steps
}

// drive runs s through steps[from:] and on to the plan's end, calling on
// (if set) at each checkpoint and delta step. Every leg drives the same
// steps from the same state, so a step that waits for a subNoC waits
// equally long in each.
func (sc scenario) drive(t *testing.T, s *adaptnoc.Sim, steps []step, from int, on func(i int, st step)) {
	t.Helper()
	runTo := func(c adaptnoc.Cycle) {
		if now := s.Kernel.Now(); now < c {
			s.Run(c - now)
		}
	}
	for i := from; i < len(steps); i++ {
		st := steps[i]
		runTo(st.at)
		switch st.kind {
		case stepSwitch:
			sn := s.Fabric.SubNoCs()[st.app]
			for guard := s.Kernel.Now() + 50000; sn.State() != fabric.StateActive; s.Run(1) {
				if s.Kernel.Now() > guard {
					t.Fatalf("subNoC %d never returned to active", st.app)
				}
			}
			if err := s.Reconfigure(st.app, st.to); err != nil {
				t.Fatalf("cycle %d: %v", s.Kernel.Now(), err)
			}
		case stepInject:
			if err := s.ApplyFaultSchedule(sc.Plan.Inject); err != nil {
				t.Fatalf("cycle %d: %v", s.Kernel.Now(), err)
			}
		default:
			if on != nil {
				on(i, st)
			}
		}
	}
	runTo(sc.Plan.End)
}

// checkRoutes requires the current tables to be deadlock-free: every pair
// routable (per subNoC on the Adapt designs), or, once a fault campaign
// is configured, every pair the tables still route.
func checkRoutes(t *testing.T, s *adaptnoc.Sim) {
	t.Helper()
	switch {
	case len(s.Cfg.Faults) > 0:
		checkHealedRoutes(t, s)
	case s.Fabric != nil:
		for _, sn := range s.Fabric.SubNoCs() {
			if err := deadlock.CheckAllPairs(s.Net, s.Fabric.RegionOf(sn)); err != nil {
				t.Fatalf("cycle %d, subNoC %d: %v", s.Kernel.Now(), sn.ID, err)
			}
		}
	default:
		if err := deadlock.CheckAllPairs(s.Net, nil); err != nil {
			t.Fatalf("cycle %d: %v", s.Kernel.Now(), err)
		}
	}
}

func mustCheckpoint(t *testing.T, s *adaptnoc.Sim) []byte {
	t.Helper()
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint at cycle %d: %v", s.Kernel.Now(), err)
	}
	return blob
}

// runScenario is the body every draw goes through. Leg A is the serial
// reference under the per-cycle invariant checker: a full checkpoint at
// the plan's cycle, chained delta frames after it. Leg B runs the same
// configuration from cycle 0 at another shard count, checkpointing
// nothing until the end. Leg C restores A's checkpoint at a third shard
// count, re-emits each of A's frames and checks the chain against its
// own full checkpoint there. Leg D restores the chain's last tip. All
// four must end with the same Results and checkpoint bytes.
func runScenario(t *testing.T, sc scenario) {
	t.Helper()
	cfg := sc.config(t)
	steps := sc.Plan.steps()
	newSim := func() *adaptnoc.Sim {
		s, err := adaptnoc.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	restore := func(blob []byte, at adaptnoc.Cycle) *adaptnoc.Sim {
		r, err := adaptnoc.RestoreSim(blob)
		if err != nil {
			t.Fatalf("restore at cycle %d: %v", at, err)
		}
		if now := r.Kernel.Now(); now != at {
			t.Fatalf("restored clock at %d, checkpointed at %d", now, at)
		}
		// Checkpoint∘restore is the identity.
		if again := mustCheckpoint(t, r); !bytes.Equal(again, blob) {
			t.Fatalf("re-checkpoint after restoring cycle %d differs (%d vs %d bytes)", at, len(again), len(blob))
		}
		return r
	}
	end := func(leg string, s *adaptnoc.Sim) (results, blob []byte) {
		if now := s.Kernel.Now(); now != sc.Plan.End {
			t.Fatalf("leg %s ended at cycle %d, plan ends at %d", leg, now, sc.Plan.End)
		}
		return resultsJSON(t, s.Results()), mustCheckpoint(t, s)
	}

	// Leg A.
	a := newSim()
	a.Net.SetVerifier(1, obs.Verify)
	var (
		base, tip []byte
		baseStep  int
		baseAt    adaptnoc.Cycle
		frames    [][]byte
		frameAt   []adaptnoc.Cycle
		tipStep   int
	)
	sc.drive(t, a, steps, 0, func(i int, st step) {
		now := a.Kernel.Now()
		if st.kind == stepCheckpoint {
			base, baseStep, baseAt = mustCheckpoint(t, a), i, now
			checkRoutes(t, a)
			return
		}
		f, err := a.CheckpointDeltaChained()
		if err != nil {
			t.Fatalf("delta frame at cycle %d: %v", now, err)
		}
		if !snap.IsDelta(f) {
			t.Fatalf("delta frame at cycle %d lacks the delta magic", now)
		}
		frames, frameAt, tipStep = append(frames, f), append(frameAt, now), i
	})
	if err := obs.Verify(a.Net, a.Kernel.Now()); err != nil {
		t.Fatal(err)
	}
	checkRoutes(t, a)
	wantRes, wantBlob := end("A", a)
	same := func(leg string, s *adaptnoc.Sim) {
		t.Helper()
		res, blob := end(leg, s)
		if !bytes.Equal(res, wantRes) {
			t.Errorf("leg %s results differ from leg A:\n got %s\nwant %s", leg, res, wantRes)
		}
		if !bytes.Equal(blob, wantBlob) {
			t.Errorf("leg %s final checkpoint differs from leg A (%d vs %d bytes)", leg, len(blob), len(wantBlob))
		}
	}

	// Leg B: same config from cycle 0, sharded, never checkpointed on the
	// way — so an A that matches it also proves checkpointing a pure read.
	b := newSim()
	b.SetShards(sc.Plan.Shards)
	defer b.StopWorkers()
	b.Net.SetVerifier(1, obs.Verify)
	sc.drive(t, b, steps, 0, nil)
	same("B", b)

	// Leg C: A's blob at another shard count. At each of A's frame cycles
	// it emits its own frame — frames are a function of content, so it
	// must equal A's — then its full checkpoint, which A's chain up to
	// that frame must reproduce.
	c := restore(base, baseAt)
	c.SetShards(sc.Plan.RestoreShards)
	defer c.StopWorkers()
	j := 0
	sc.drive(t, c, steps, baseStep+1, func(_ int, st step) {
		now := c.Kernel.Now()
		if now != frameAt[j] {
			t.Fatalf("leg C reached frame %d at cycle %d, leg A at %d", j, now, frameAt[j])
		}
		f, err := c.CheckpointDeltaChained()
		if err != nil {
			t.Fatalf("leg C delta frame at cycle %d: %v", now, err)
		}
		if !bytes.Equal(f, frames[j]) {
			t.Errorf("frame at cycle %d differs between leg A (serial) and leg C (%d shards)", now, sc.Plan.RestoreShards)
		}
		full := mustCheckpoint(t, c)
		applied, err := snap.ApplyChain(base, frames[:j+1]...)
		if err != nil {
			t.Fatalf("applying %d frames: %v", j+1, err)
		}
		if !bytes.Equal(applied, full) {
			t.Fatalf("base ⊕ %d frames (%d bytes) differs from the full checkpoint at cycle %d (%d bytes)",
				j+1, len(applied), now, len(full))
		}
		tip = applied
		j++
	})
	if j != len(frames) {
		t.Fatalf("leg C checked %d of %d frames", j, len(frames))
	}
	same("C", c)

	// Leg D: the chain-reconstructed tip resumes like any blob.
	d := restore(tip, frameAt[len(frameAt)-1])
	sc.drive(t, d, steps, tipStep+1, nil)
	same("D", d)
}

// FuzzScenario draws a scenario per seed and runs it through every
// identity. The seeds share nothing, so they run in parallel.
func FuzzScenario(f *testing.F) {
	for _, seed := range scenarioSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		t.Parallel()
		sc := drawScenario(seed)
		defer func() {
			if t.Failed() {
				t.Logf("draw:\n%s", sc)
			}
		}()
		runScenario(t, sc)
	})
}

// faults is the draw's whole campaign, configured or injected.
func (sc scenario) faults() []fault.Event {
	return append(append([]fault.Event(nil), sc.Config.Faults...), sc.Plan.Inject...)
}

func (sc scenario) hasFault(k fault.Kind) bool {
	for _, ev := range sc.faults() {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// midEpoch: the checkpoint falls between epoch boundaries after the first,
// with the agents already holding experience.
func (sc scenario) midEpoch() bool {
	ck, ep := int(sc.Plan.Checkpoint), sc.Config.EpochCycles
	return ck > ep && ck%ep != 0
}

// tripBeforeCheckpoint: a tree round trip ends before the checkpoint and
// before any strike freezes the fabric (which turns switches into no-ops).
func (sc scenario) tripBeforeCheckpoint() bool {
	tr := sc.Plan.Trip
	if tr == nil || tr.Return >= sc.Plan.Checkpoint {
		return false
	}
	for _, ev := range sc.faults() {
		if adaptnoc.Cycle(ev.Cycle) <= tr.Return {
			return false
		}
	}
	return true
}

// coverageRow is one case the seed corpus must draw. covers names the
// hand-written tests whose configuration and assertion a seed drawing the
// case also draws and makes.
type coverageRow struct {
	name   string
	covers []string
	has    func(scenario) bool
}

func scenarioCoverage() []coverageRow {
	var rows []coverageRow
	for d := adaptnoc.DesignBaseline; d < adaptnoc.NumDesigns; d++ {
		covers := []string{
			"TestDeltaChainByteIdenticalAllDesigns/" + d.String(),
			"TestCheckpointResumeByteIdenticalAllDesigns/" + d.String(),
		}
		switch d {
		case adaptnoc.DesignBaseline:
			covers = append(covers, "TestShardedResultsByteIdentical/baseline")
		case adaptnoc.DesignAdaptNoC:
			covers = append(covers, "TestShardedResultsByteIdentical/adapt-noc",
				"TestShardedRestoreCrossesShardCounts", "TestDeltaResumeByteIdentical")
		}
		rows = append(rows, coverageRow{d.String() + " with a delta chain", covers,
			func(sc scenario) bool { return sc.Config.Design == d }})
	}
	return append(rows,
		coverageRow{"torus-pinned adapt-norl",
			[]string{"TestShardedResultsByteIdentical/adapt-norl", "TestShardedVerifyInvariants"},
			func(sc scenario) bool {
				if sc.Config.Design != adaptnoc.DesignAdaptNoRL {
					return false
				}
				for _, a := range sc.Config.Apps {
					if a.Static == adaptnoc.Torus {
						return true
					}
				}
				return false
			}},
		coverageRow{"adapt-noc frames re-emitted at 4 shards",
			[]string{"TestDeltaFramesShardInvariant"},
			func(sc scenario) bool {
				return sc.Config.Design == adaptnoc.DesignAdaptNoC && sc.Plan.RestoreShards == 4
			}},
		coverageRow{"link fault", []string{"TestFaultShardedByteIdentical"},
			func(sc scenario) bool { return sc.hasFault(fault.KindLink) }},
		coverageRow{"router fault", []string{"TestFaultShardedByteIdentical"},
			func(sc scenario) bool { return sc.hasFault(fault.KindRouter) }},
		coverageRow{"vc fault", []string{"TestFaultShardedByteIdentical"},
			func(sc scenario) bool { return sc.hasFault(fault.KindVC) }},
		coverageRow{"repaired fault", []string{"TestFaultShardedByteIdentical"},
			func(sc scenario) bool {
				for _, ev := range sc.faults() {
					if ev.Repair > 0 {
						return true
					}
				}
				return false
			}},
		coverageRow{"adapt-noc checkpoint after a router strike",
			[]string{"TestFaultCheckpointRestoredIntoShardedRun"},
			func(sc scenario) bool {
				for _, ev := range sc.Config.Faults {
					if ev.Kind == fault.KindRouter && adaptnoc.Cycle(ev.Cycle) < sc.Plan.Checkpoint {
						return sc.Config.Design == adaptnoc.DesignAdaptNoC
					}
				}
				return false
			}},
		coverageRow{"checkpoint inside a drain or heal window",
			[]string{"TestFaultCheckpointMidCampaign"},
			func(sc scenario) bool {
				for _, ev := range sc.Config.Faults {
					if ck := int64(sc.Plan.Checkpoint); ev.Cycle < ck && ck <= ev.Cycle+max(500, ev.Repair) {
						return true
					}
				}
				return false
			}},
		coverageRow{"delta chain across a strike and its repair",
			[]string{"TestDeltaChainWithFaults"},
			func(sc scenario) bool {
				last := sc.Plan.Deltas[len(sc.Plan.Deltas)-1]
				for _, ev := range sc.faults() {
					if ev.Repair > 0 && sc.Plan.Checkpoint < adaptnoc.Cycle(ev.Cycle) &&
						adaptnoc.Cycle(ev.Cycle+ev.Repair) < last {
						return true
					}
				}
				return false
			}},
		coverageRow{"frame within 100 cycles of a checkpoint after a strike", nil,
			func(sc scenario) bool {
				for _, ev := range sc.Config.Faults {
					if adaptnoc.Cycle(ev.Cycle) < sc.Plan.Checkpoint && sc.Plan.Deltas[0] < sc.Plan.Checkpoint+100 {
						return true
					}
				}
				return false
			}},
		coverageRow{"fault schedule applied mid-chain",
			[]string{"TestDeltaChainAcrossFaultSchedule"},
			func(sc scenario) bool { return sc.Plan.Inject != nil }},
		coverageRow{"trace replay",
			[]string{"TestTraceReplayShardByteIdentical", "TestTraceReplayCheckpointResume"},
			func(sc scenario) bool { return sc.Trace }},
		coverageRow{"RL training resumed mid-epoch",
			[]string{"TestCheckpointMidEpochRLTraining/dqn"},
			func(sc scenario) bool { return sc.Config.RL.Train && !sc.Config.UseQTable && sc.midEpoch() }},
		coverageRow{"Q-table resumed mid-epoch",
			[]string{"TestCheckpointMidEpochRLTraining/qtable"},
			func(sc scenario) bool { return sc.Config.UseQTable && sc.midEpoch() }},
		coverageRow{"tree round trip then checkpoint on adapt-norl", nil,
			func(sc scenario) bool {
				return sc.Config.Design == adaptnoc.DesignAdaptNoRL && sc.tripBeforeCheckpoint()
			}},
		coverageRow{"tree round trip then checkpoint on adapt-noc", nil,
			func(sc scenario) bool {
				return sc.Config.Design == adaptnoc.DesignAdaptNoC && sc.tripBeforeCheckpoint()
			}},
	)
}

// TestScenarioCoverage draws every seed of the corpus, without simulating,
// and requires each row of scenarioCoverage to be drawn by one of them.
func TestScenarioCoverage(t *testing.T) {
	t.Parallel()
	draws := make([]scenario, len(scenarioSeeds))
	for i, seed := range scenarioSeeds {
		draws[i] = drawScenario(seed)
		if err := draws[i].Config.Validate(); err != nil {
			t.Errorf("seed %d draws an invalid config: %v", seed, err)
		}
	}
	for _, row := range scenarioCoverage() {
		found := false
		for _, sc := range draws {
			if row.has(sc) {
				t.Logf("%-56s seed %d", row.name, sc.Seed)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no seed draws %q (covering %s)", row.name, strings.Join(row.covers, ", "))
		}
	}
}
