// Package adaptnoc is a from-scratch implementation of Adapt-NoC (Zheng,
// Wang, Louri — HPCA 2021): a reconfigurable network-on-chip fabric that
// partitions a manycore chip into disjoint subNoCs, gives each concurrently
// running application its own topology (mesh, cmesh, torus, or tree), and
// selects that topology at runtime with a per-subNoC deep-Q-network
// control policy.
//
// The package is a façade over the internal packages:
//
//   - internal/sim — deterministic cycle-driven kernel
//   - internal/noc — cycle-accurate VC routers, links, network interfaces
//   - internal/topology — topology builders and routing tables
//   - internal/fabric — subNoC allocation, reconfiguration, MC sharing
//   - internal/rl — DQN / Q-learning control policies
//   - internal/power — DSENT-style energy accounting
//   - internal/system — closed-loop CPU/GPU core and memory model
//   - internal/core — the per-subNoC epoch controller
//
// The quickest way in is NewSim with a Design and a set of AppSpecs; see
// examples/quickstart.
package adaptnoc

import (
	"encoding/json"
	"fmt"

	"adaptnoc/internal/core"
	"adaptnoc/internal/fabric"
	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/power"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/system"
	"adaptnoc/internal/topology"
	"adaptnoc/internal/traffic"
)

// Re-exported building blocks.
type (
	// PolicyNet is a DQN prediction network (offline-trained weights).
	PolicyNet = rl.Net
	// Region is a rectangular set of tiles.
	Region = topology.Region
	// Kind is a subNoC topology (Mesh, CMesh, Torus, Tree).
	Kind = topology.Kind
	// NodeID identifies a tile.
	NodeID = noc.NodeID
	// Cycle is a simulation timestamp.
	Cycle = sim.Cycle
	// EnergyBreakdown splits energy by component.
	EnergyBreakdown = power.Breakdown
	// TickStats counts executed versus skipped component ticks (the
	// network's idle-skip work lists).
	TickStats = noc.TickStats
)

// Topology kinds. TorusTree is the Section II-B.4 extension (torus
// request network + tree reply network); it is outside the RL action
// space but available to Static configuration and manual Reconfigure.
const (
	Mesh      = topology.Mesh
	CMesh     = topology.CMesh
	Torus     = topology.Torus
	Tree      = topology.Tree
	TorusTree = topology.TorusTree
)

// Design selects one of the evaluated network designs (Section IV-A).
type Design int

// The seven design points of the paper's evaluation.
const (
	DesignBaseline  Design = iota // 8x8 mesh
	DesignOSCAR                   // mesh + dynamic VC allocation
	DesignShortcut                // mesh + long-range express links
	DesignFTBY                    // flattened butterfly
	DesignFTBYPG                  // flattened butterfly + runtime power gating
	DesignAdaptNoRL               // Adapt-NoC fabric, statically chosen topology
	DesignAdaptNoC                // Adapt-NoC fabric + RL policy
	NumDesigns
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case DesignBaseline:
		return "baseline"
	case DesignOSCAR:
		return "oscar"
	case DesignShortcut:
		return "shortcut"
	case DesignFTBY:
		return "ftby"
	case DesignFTBYPG:
		return "ftby-pg"
	case DesignAdaptNoRL:
		return "adapt-norl"
	case DesignAdaptNoC:
		return "adapt-noc"
	default:
		return fmt.Sprintf("design(%d)", int(d))
	}
}

// AppSpec describes one application to map onto the chip. A spec is
// either synthetic — Profile names a phase model — or replayed: exactly
// one of Profile and Trace/TraceData must be set.
type AppSpec struct {
	// Profile names a benchmark from internal/traffic (Table II).
	Profile string `json:"profile,omitempty"`
	// Trace names an ADNOCTRC dependency-trace file (adaptnoc-sim
	// -record-trace) to replay instead of a synthetic profile. It is a
	// client-side convenience: NewSim inlines the file's bytes into
	// TraceData, and the serving API rejects the path form — a server
	// never reads its own filesystem on a client's behalf.
	Trace string `json:"trace,omitempty"`
	// TraceData is the trace blob itself (base64 in JSON). It lives inside
	// the config, so it travels through the serving API, enters the
	// content-addressed cache key, and keeps checkpoints self-contained.
	TraceData []byte `json:"traceData,omitempty"`
	// TraceApp selects which of the trace's recorded applications this
	// spec replays (a recording of an n-app chip holds n streams).
	TraceApp int `json:"traceApp,omitempty"`
	// Region is the tile rectangle the application occupies.
	Region Region `json:"region"`
	// MCTiles host the region's memory controllers — the paper provisions
	// one per 2x4 sub-block (Section II-C.2). Empty defaults to one MC at
	// the region's origin tile. The first MC is primary (tree root).
	MCTiles []NodeID `json:"mcTiles,omitempty"`
	// InstrBudget is instructions per core; 0 runs until the simulation
	// cycle limit (latency experiments).
	InstrBudget int64 `json:"instrBudget,omitempty"`
	// Static pins the subNoC topology under DesignAdaptNoRL (and is the
	// initial topology under DesignAdaptNoC).
	Static Kind `json:"static,omitempty"`
	// ShareMCs asks the fabric for access to that many foreign MCs
	// (Adapt designs only).
	ShareMCs int `json:"shareMCs,omitempty"`

	// decoded is a decode of TraceData (see TraceWorkload), trusted only
	// while TraceData still hashes to its digest. JSON drops it.
	decoded *decodedTrace
}

// RLOptions configure the DesignAdaptNoC policy. The DQN's other
// hyper-parameters are the paper's (rl.DefaultDQNConfig).
type RLOptions struct {
	// Pretrained supplies offline-trained weights (Section III-E); nil
	// starts from fresh weights.
	Pretrained *rl.Net `json:"pretrained,omitempty"`
	// SharedAgent makes every subNoC controller use this one agent
	// instance — the offline training harness accumulates experience
	// across episodes through it. Overrides Pretrained. It is an in-process
	// handle and deliberately has no JSON representation: configurations
	// that carry one cannot travel over the serving API or be hashed.
	SharedAgent *rl.DQN `json:"-"`
	// Train enables online learning (used by the offline training harness).
	Train bool `json:"train,omitempty"`
	// Epsilon overrides the exploration rate when EpsilonSet (Fig. 19
	// sweep; zero is a valid rate).
	Epsilon    float64 `json:"epsilon,omitempty"`
	EpsilonSet bool    `json:"epsilonSet,omitempty"`
	// Gamma overrides the discount factor when > 0 (Fig. 18 sweep).
	Gamma float64 `json:"gamma,omitempty"`
}

// Fixed model constants. The memory timing and the energy model are
// system.DefaultParams and power.DefaultParams; these are the per-design
// ones.
const (
	// shortcutLinksPerApp is DesignShortcut's express-link budget per
	// application.
	shortcutLinksPerApp = 2
	// pgWakeCycles and pgIdleCycles time DesignFTBYPG's power gating: a
	// gated router wakes in 16 cycles and gates after 10 idle ones.
	pgWakeCycles = 16
	pgIdleCycles = 10
)

// maxGridDim bounds Config.Width/Height. Past 64×64 a single chip
// outgrows both the paper's platform and what the sharded tick has been
// validated on, and a config travels as JSON, so a few bytes must not be
// able to demand an enormous simulation.
const maxGridDim = 64

// maxVCsPerVNet bounds Config.VCsPerVNet at what internal/noc accepts.
const maxVCsPerVNet = noc.MaxPortVCs / noc.NumVNets

// Config assembles a simulation.
type Config struct {
	Design Design    `json:"design"`
	Apps   []AppSpec `json:"apps"`

	// Width and Height size the chip grid in tiles. Zero means the
	// paper's 8×8 evaluation platform; larger grids (up to maxGridDim per
	// side) serve the scaling experiments that the sharded tick targets.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`

	// Seed drives every random stream; equal seeds give identical runs.
	Seed uint64 `json:"seed"`
	// EpochCycles is the control epoch (paper: 50000).
	EpochCycles int `json:"epochCycles,omitempty"`
	// RL configures the DesignAdaptNoC policy.
	RL RLOptions `json:"rl"`

	// Ablation knobs (default off = the paper's design).
	//
	// NoInjectionBypass removes the Adapt-NoC bypass at the injection
	// port's VCs (Section II-A.1).
	NoInjectionBypass bool `json:"noInjectionBypass,omitempty"`
	// VCsPerVNet overrides the per-design virtual-channel count when > 0.
	VCsPerVNet int `json:"vcsPerVNet,omitempty"`
	// SetupCycles overrides the reconfiguration table-setup time Ts when
	// > 0 (paper: 14).
	SetupCycles int `json:"setupCycles,omitempty"`
	// UseQTable replaces the DQN with the tabular Q-learning agent the
	// paper argues against (Section III-A).
	UseQTable bool `json:"useQTable,omitempty"`

	// Faults schedules deterministic link/router/VC failures injected
	// mid-run (see internal/fault). Order is significant: checkpoint blobs
	// reference events by index, so the schedule is never re-sorted.
	Faults []fault.Event `json:"faults,omitempty"`
}

// Sim is a fully assembled simulation of one design point.
type Sim struct {
	Cfg     Config
	Kernel  *sim.Kernel
	Net     *noc.Network
	Fabric  *fabric.Fabric // nil for non-Adapt designs
	Machine *system.Machine
	Meter   *power.Meter
	Ctl     *core.Controller      // nil for non-Adapt designs
	OSCAR   *core.OSCARController // nil unless DesignOSCAR
	apps    []*system.App
	binds   []*core.Binding
	specs   []AppSpec
	subnocs []*fabric.SubNoC
	faults  *fault.Engine     // nil unless Cfg.Faults is non-empty
	rec     *traffic.Recorder // nil unless RecordTrace armed it

	// snaps turns the checkpoint walk into full blobs and delta frames and
	// keeps the newest snapshot, the base the next frame diffs against
	// (see checkpoint.go); cfgJSON caches the config section between full
	// checkpoints.
	snaps   snap.SectionSource
	cfgJSON []byte
}

// netConfig derives the per-design microarchitecture (Section IV-A's
// area-equalized VC counts and hop latencies) on a w×h grid (0 defaults
// to the paper's 8×8 platform).
func netConfig(d Design, w, h int) noc.Config {
	cfg := noc.DefaultConfig()
	if w > 0 {
		cfg.Width = w
	}
	if h > 0 {
		cfg.Height = h
	}
	switch d {
	case DesignFTBY, DesignFTBYPG:
		cfg.RouterLatency = 3
		cfg.VCsPerVNet = 4
	case DesignAdaptNoRL, DesignAdaptNoC:
		cfg.VCsPerVNet = 2
		cfg.InjectionBypass = true
	}
	return cfg
}

// Finite reports whether the configuration runs to completion rather than
// for a fixed window: some application has an instruction budget or
// replays a dependency trace. Sim.RunTo takes its run mode from it.
func (c Config) Finite() bool {
	for _, a := range c.Apps {
		if a.InstrBudget > 0 || a.Trace != "" || len(a.TraceData) > 0 {
			return true
		}
	}
	return false
}

// Canonical resolves the configuration into the form NewSim actually
// simulates: every defaulted field is filled with its explicit value and
// every knob the selected design ignores is reset to its zero value, so
// that two configurations produce identical simulations if and only if
// their canonical forms are identical. NewSim(cfg) and
// NewSim(cfg.Canonical()) build the same simulation.
//
// The returned config owns fresh Apps/MCTiles storage; the
// RL.Pretrained and RL.SharedAgent pointers are shared (pretrained weights
// are treated as immutable, and NewSim clones them before use).
func (c Config) Canonical() Config {
	cfg := c
	cfg.Apps = append([]AppSpec(nil), c.Apps...)
	cfg.Faults = append([]fault.Event(nil), c.Faults...)
	if cfg.Width == 0 {
		cfg.Width = noc.DefaultConfig().Width
	}
	if cfg.Height == 0 {
		cfg.Height = noc.DefaultConfig().Height
	}
	if cfg.EpochCycles == 0 {
		cfg.EpochCycles = 50000
	}

	adapt := cfg.Design == DesignAdaptNoRL || cfg.Design == DesignAdaptNoC

	// Per-design knobs: fill defaults where the design reads them, zero
	// them where it does not (NewSim never looks, so differing values
	// would change nothing but the config's hash).
	if adapt {
		if cfg.SetupCycles == 0 {
			cfg.SetupCycles = fabric.DefaultSetupCycles
		}
	} else {
		cfg.SetupCycles = 0
		cfg.NoInjectionBypass = false
	}
	// The effective VC count is the design default unless overridden;
	// recording it explicitly makes "override with the default" and "no
	// override" the same config.
	if cfg.VCsPerVNet == 0 {
		cfg.VCsPerVNet = netConfig(cfg.Design, cfg.Width, cfg.Height).VCsPerVNet
	}

	// RL options only steer DesignAdaptNoC's learned policy.
	if cfg.Design != DesignAdaptNoC {
		cfg.RL = RLOptions{}
		cfg.UseQTable = false
	} else if cfg.UseQTable {
		cfg.RL = RLOptions{} // the tabular agent takes no hyper-parameters
	} else {
		if cfg.RL.SharedAgent != nil {
			cfg.RL.Pretrained = nil // SharedAgent overrides
		}
		// The one place the paper's exploration rate and discount factor
		// fill in; newAgent only reads them.
		if !cfg.RL.EpsilonSet {
			cfg.RL.Epsilon, cfg.RL.EpsilonSet = rl.DefaultDQNConfig().Epsilon, true
		}
		if cfg.RL.Gamma == 0 {
			cfg.RL.Gamma = rl.DefaultDQNConfig().Gamma
		}
	}

	// Static topology pins are only read by the Adapt designs.
	gridW := cfg.Width
	for i := range cfg.Apps {
		a := &cfg.Apps[i]
		if len(a.MCTiles) == 0 {
			a.MCTiles = []NodeID{noc.Coord{X: a.Region.X, Y: a.Region.Y}.ID(gridW)}
		} else {
			a.MCTiles = append([]NodeID(nil), a.MCTiles...)
		}
		if !adapt {
			a.Static = Mesh
		}
	}
	return cfg
}

// NewSim assembles a simulation. Regions must be disjoint and on-grid.
func NewSim(cfg Config) (*Sim, error) {
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("adaptnoc: no applications")
	}
	cfg = cfg.Canonical()

	ncfg := netConfig(cfg.Design, cfg.Width, cfg.Height)
	if cfg.NoInjectionBypass {
		ncfg.InjectionBypass = false
	}
	if cfg.VCsPerVNet > 0 {
		ncfg.VCsPerVNet = cfg.VCsPerVNet
	}
	if err := ncfg.Validate(); err != nil {
		return nil, fmt.Errorf("adaptnoc: %w", err)
	}
	// traces[i] is the recorded stream spec i replays (nil for synthetic
	// apps). Resolving also inlines path-named files into cfg.Apps so the
	// config stored on the Sim — and in every checkpoint taken from it —
	// is self-contained.
	traces := make([]*traffic.TraceApp, len(cfg.Apps))
	decodes := newTraceDecodes(cfg.Apps)
	for i := range cfg.Apps {
		a := &cfg.Apps[i]
		for _, mc := range a.MCTiles {
			if !a.Region.Contains(noc.CoordOf(mc, ncfg.Width)) {
				return nil, fmt.Errorf("adaptnoc: app %d MC tile %d outside region %v", i, mc, a.Region)
			}
		}
		if a.Trace != "" || len(a.TraceData) > 0 {
			ta, err := resolveTraceSpec(a, ncfg.Width, ncfg.Height, &decodes)
			if err != nil {
				return nil, fmt.Errorf("adaptnoc: app %d: %w", i, err)
			}
			traces[i] = ta
		} else if err := CheckProfile(a.Profile); err != nil {
			return nil, err
		}
		for j := 0; j < i; j++ {
			if a.Region.Overlaps(cfg.Apps[j].Region) {
				return nil, fmt.Errorf("adaptnoc: app regions %v and %v overlap", a.Region, cfg.Apps[j].Region)
			}
		}
	}

	s := &Sim{Cfg: cfg, specs: cfg.Apps}
	s.snaps.Walk = s.checkpointSections
	s.Kernel = sim.NewKernel()
	s.Net = noc.NewNetwork(ncfg)
	s.Kernel.Register(s.Net)
	s.Machine = system.NewMachine(s.Net, s.Kernel, system.DefaultParams())

	rng := sim.NewRNG(cfg.Seed ^ 0xadaf7)

	switch cfg.Design {
	case DesignBaseline, DesignOSCAR:
		topology.BuildMesh(s.Net)
	case DesignShortcut:
		topology.BuildShortcutMesh(s.Net, s.shortcutLinks(ncfg))
	case DesignFTBY, DesignFTBYPG:
		topology.BuildFlattenedButterfly(s.Net)
		if cfg.Design == DesignFTBYPG {
			for _, r := range s.Net.Routers() {
				if !r.Disabled() {
					r.EnablePowerGating(pgWakeCycles, pgIdleCycles)
				}
			}
		}
	case DesignAdaptNoRL, DesignAdaptNoC:
		fcfg := fabric.DefaultConfig()
		if cfg.SetupCycles > 0 {
			fcfg.SetupCycles = cfg.SetupCycles
		}
		s.Fabric = fabric.New(s.Net, s.Kernel, fcfg)
	default:
		return nil, fmt.Errorf("adaptnoc: unknown design %v", cfg.Design)
	}

	// Applications. The fabric's per-subNoC MC anchor (the tree root) is
	// the most central of the region's controllers, which minimizes the
	// tree's depth.
	var subnocs []*fabric.SubNoC
	for i, spec := range cfg.Apps {
		if s.Fabric != nil {
			primary := centralMC(spec, ncfg.Width)
			var extras []noc.NodeID
			for _, mc := range spec.MCTiles {
				if mc != primary {
					extras = append(extras, mc)
				}
			}
			sn, err := s.Fabric.Allocate(i, spec.Region, spec.Static, primary, extras...)
			if err != nil {
				return nil, fmt.Errorf("adaptnoc: app %d: %w", i, err)
			}
			subnocs = append(subnocs, sn)
		}
		// Every app draws its RNG split, used or not, so adding a trace
		// spec never shifts a neighbouring profile app's random stream.
		appRNG := rng.Split(uint64(1000 + i))
		var app *system.App
		if ta := traces[i]; ta != nil {
			src := traffic.NewTraceSource(ta, spec.Region.X, spec.Region.Y, ncfg.Width)
			app = system.NewSourceApp(i, ta.Profile, src, spec.Region.Tiles(ncfg.Width), spec.MCTiles)
		} else {
			prof, _ := traffic.ByName(spec.Profile)
			app = system.NewApp(i, prof, spec.Region.Tiles(ncfg.Width),
				spec.MCTiles, spec.InstrBudget, appRNG)
		}
		s.apps = append(s.apps, app)
		s.Machine.AddApp(app)
	}

	// MC sharing: a memory-hungry app additionally reaches foreign MCs in
	// adjacent subNoCs (Section II-C.2); 20% of its off-chip accesses go
	// there. Under the Adapt designs the fabric wires a boundary crossing;
	// under the whole-chip baselines the shared mesh already reaches them.
	const foreignFrac = 0.2
	for i, spec := range cfg.Apps {
		if spec.ShareMCs <= 0 {
			continue
		}
		var foreign []noc.NodeID
		got := 0
		for j, other := range cfg.Apps {
			if got >= spec.ShareMCs || j == i {
				continue
			}
			if s.Fabric != nil {
				if err := s.Fabric.ShareMC(subnocs[i], other.MCTiles[0]); err != nil {
					continue
				}
			}
			foreign = append(foreign, other.MCTiles[0])
			got++
		}
		s.apps[i].SetForeignMCs(foreign, foreignFrac)
	}
	s.subnocs = subnocs
	s.Meter = power.NewMeter(s.Net, power.DefaultParams())

	// Control plane.
	switch cfg.Design {
	case DesignOSCAR:
		s.OSCAR = core.NewOSCARController(s.Kernel, s.Net, s.apps)
		s.OSCAR.EpochCycles = cfg.EpochCycles
		s.OSCAR.Start()
	case DesignAdaptNoRL, DesignAdaptNoC:
		s.Ctl = core.NewController(s.Kernel, s.Fabric, s.Machine, s.Meter)
		s.Ctl.EpochCycles = cfg.EpochCycles
		for i, sn := range subnocs {
			var pol core.Policy
			switch {
			case cfg.Design == DesignAdaptNoRL:
				pol = core.StaticPolicy{Kind: cfg.Apps[i].Static}
			case cfg.UseQTable:
				pol = &core.QTablePolicy{Agent: rl.NewQTable(rng.Split(uint64(7000 + i)))}
			default:
				pol = &core.DQNPolicy{Agent: s.newAgent(rng.Split(uint64(7000 + i))), Train: cfg.RL.Train}
			}
			b := s.Ctl.Bind(sn, s.apps[i], pol)
			b.KeepTrace = true
			s.binds = append(s.binds, b)
		}
		s.Ctl.Start()
	}

	if len(cfg.Faults) > 0 {
		eng, err := fault.New(s.Net, s.Kernel, s.Fabric, cfg.Faults, s.faultOptions())
		if err != nil {
			return nil, fmt.Errorf("adaptnoc: %w", err)
		}
		s.faults = eng
	}
	return s, nil
}

// faultOptions derives the fault engine's tuning from the configuration.
// OSCAR's opaque VC admission policy cannot be proven compatible with a
// partially masked port, so its VC faults escalate to link faults.
func (s *Sim) faultOptions() fault.Options {
	return fault.Options{
		EscalateVCFaults: s.Cfg.Design == DesignOSCAR,
		SetupCycles:      s.Cfg.SetupCycles,
	}
}

// FaultEngine returns the fault engine, or nil when no faults are
// scheduled.
func (s *Sim) FaultEngine() *fault.Engine { return s.faults }

// ApplyFaultSchedule injects additional fault events at runtime — the
// fault-campaign workflow restores one warmed checkpoint and replays it
// under many schedules. Every event must strike strictly after the current
// cycle. The schedule becomes part of Cfg.Faults, so a checkpoint taken
// afterwards restores the extended schedule.
func (s *Sim) ApplyFaultSchedule(events []fault.Event) error {
	if len(events) == 0 {
		return nil
	}
	if s.faults == nil {
		now := s.Kernel.Now()
		for i := range events {
			if events[i].Cycle <= int64(now) {
				return fmt.Errorf("adaptnoc: events[%d].cycle: %d is not after the current cycle %d",
					i, events[i].Cycle, now)
			}
		}
		eng, err := fault.New(s.Net, s.Kernel, s.Fabric, events, s.faultOptions())
		if err != nil {
			return fmt.Errorf("adaptnoc: %w", err)
		}
		s.faults = eng
	} else if err := s.faults.Extend(events); err != nil {
		return fmt.Errorf("adaptnoc: %w", err)
	}
	s.Cfg.Faults = append(s.Cfg.Faults, events...)
	s.cfgJSON = nil // the next frame carries the extended schedule
	return nil
}

// newAgent instantiates one subNoC's DQN from the RL options.
func (s *Sim) newAgent(rng *sim.RNG) *rl.DQN {
	if s.Cfg.RL.SharedAgent != nil {
		return s.Cfg.RL.SharedAgent
	}
	dcfg := rl.DefaultDQNConfig()
	dcfg.Epsilon, dcfg.Gamma = s.Cfg.RL.Epsilon, s.Cfg.RL.Gamma // canonical: always set
	if s.Cfg.RL.Pretrained != nil {
		return rl.NewDQNFromNet(dcfg, s.Cfg.RL.Pretrained.Clone(), rng)
	}
	return rl.NewDQN(dcfg, rng)
}

// shortcutLinks derives per-application express links: from each app's MC
// router to the far end of its region's MC row and MC column (the
// long-distance memory traffic the Shortcut design targets).
func (s *Sim) shortcutLinks(ncfg noc.Config) []topology.Shortcut {
	var out []topology.Shortcut
	for _, spec := range s.Cfg.Apps {
		mc := noc.CoordOf(spec.MCTiles[0], ncfg.Width)
		budget := shortcutLinksPerApp
		rowFar := noc.Coord{X: spec.Region.X + spec.Region.W - 1, Y: mc.Y}
		if rowFar.X == mc.X {
			rowFar.X = spec.Region.X
		}
		colFar := noc.Coord{X: mc.X, Y: spec.Region.Y + spec.Region.H - 1}
		if colFar.Y == mc.Y {
			colFar.Y = spec.Region.Y
		}
		for _, far := range []noc.Coord{rowFar, colFar} {
			if budget == 0 {
				break
			}
			d := abs(far.X-mc.X) + abs(far.Y-mc.Y)
			if d < 2 {
				continue
			}
			out = append(out, topology.Shortcut{A: spec.MCTiles[0], B: far.ID(ncfg.Width)})
			budget--
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Reconfigure switches an application's subNoC to a new topology at
// runtime using the staged deadlock-free protocol (Adapt designs only).
// It is asynchronous: the switch is complete once the subNoC's State()
// (s.Fabric.SubNoCs()[appIndex]) is back to fabric.StateActive, and a
// checkpoint taken before then resumes it. Under DesignAdaptNoC the RL
// controller may immediately reconfigure again at the next epoch; for
// manual control use DesignAdaptNoRL.
func (s *Sim) Reconfigure(appIndex int, kind Kind) error {
	if s.Fabric == nil {
		return fmt.Errorf("adaptnoc: design %v has no reconfigurable fabric", s.Cfg.Design)
	}
	if appIndex < 0 || appIndex >= len(s.subnocs) {
		return fmt.Errorf("adaptnoc: no application %d", appIndex)
	}
	return s.Fabric.Reconfigure(s.subnocs[appIndex], kind)
}

// TickStats reports how many router and channel ticks the network skipped
// through its idle work lists — the observability hook for the hot-path
// optimization.
func (s *Sim) TickStats() TickStats { return s.Net.TickStats() }

// Topology reports an application's current subNoC topology (Adapt
// designs; Mesh otherwise).
func (s *Sim) Topology(appIndex int) Kind {
	if s.Fabric == nil || appIndex < 0 || appIndex >= len(s.subnocs) {
		return Mesh
	}
	return s.subnocs[appIndex].Kind
}

// Layout renders an application's region as ASCII art (active routers,
// powered-off routers, mesh links, adaptable segments) for inspection.
func (s *Sim) Layout(appIndex int) string {
	if appIndex < 0 || appIndex >= len(s.specs) {
		return ""
	}
	return topology.Render(s.Net, s.specs[appIndex].Region)
}

// LoadPolicy parses DQN weights produced by cmd/adaptnoc-train.
func LoadPolicy(blob []byte) (*PolicyNet, error) {
	var n rl.Net
	if err := json.Unmarshal(blob, &n); err != nil {
		return nil, fmt.Errorf("adaptnoc: parsing policy weights: %w", err)
	}
	return &n, nil
}

// DefaultPolicy returns a fresh copy of the embedded offline-trained
// policy.
func DefaultPolicy() *PolicyNet { return rl.Pretrained() }

// centralMC returns the app's memory controller with the smallest total
// distance to the region's tiles — the tree root that minimizes depth.
func centralMC(spec AppSpec, gridW int) NodeID {
	best, bestSum := spec.MCTiles[0], 1<<30
	for _, mc := range spec.MCTiles {
		c := noc.CoordOf(mc, gridW)
		sum := 0
		for _, t := range spec.Region.Tiles(gridW) {
			tc := noc.CoordOf(t, gridW)
			sum += abs(tc.X-c.X) + abs(tc.Y-c.Y)
		}
		if sum < bestSum {
			best, bestSum = mc, sum
		}
	}
	return best
}
