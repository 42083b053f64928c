// Package fabric implements the Adapt-NoC reconfigurable fabric of
// Section II: dynamic allocation of disjoint subNoC regions, runtime
// switching of each subNoC between mesh, cmesh, torus, and tree topologies
// through the adaptable routers' mux attachments and the segmentable /
// reversible adaptable links, the deadlock-free reconfiguration protocol
// with its notification wave and Ts connection-setup window, memory
// controller sharing across adjacent subNoCs, and the wiring-resource
// discipline (one bidirectional adaptable link per row and column, hosting
// disjoint segments).
package fabric

import (
	"fmt"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// Reconfiguration timing shared with the fault engine's drains.
const (
	// DefaultSetupCycles is the paper's Ts, the router connection/table
	// setup time during which route computation stalls (Section IV-A).
	DefaultSetupCycles = 14
	// DrainTimeout bounds the wait for a region to quiesce; exceeding it
	// panics (it would mean packets are stuck, i.e. a routing bug).
	DrainTimeout sim.Cycle = 50000
)

// Config carries the fabric's reconfiguration timing parameters.
type Config struct {
	// SetupCycles is Ts (DefaultSetupCycles unless an ablation stretches
	// it).
	SetupCycles int
}

// DefaultConfig returns the paper's timing parameters.
func DefaultConfig() Config {
	return Config{SetupCycles: DefaultSetupCycles}
}

// SubNoCState tracks the reconfiguration lifecycle.
type SubNoCState int

// SubNoC states.
const (
	StateActive SubNoCState = iota
	StateNotifying
	StateDraining
	StateSettingUp
)

// String implements fmt.Stringer.
func (s SubNoCState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateNotifying:
		return "notifying"
	case StateDraining:
		return "draining"
	case StateSettingUp:
		return "setting-up"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SubNoC is one dynamically allocated region running one application with
// its own topology (Fig. 1(b)).
type SubNoC struct {
	ID     int
	App    int
	Region topology.Region
	Kind   topology.Kind
	// MCTile is the tile hosting the region's primary memory controller;
	// it is the root of the tree topology.
	MCTile noc.NodeID
	// MCTiles lists every MC in the region (primary first); the tree
	// topologies give each one injection fanout.
	MCTiles []noc.NodeID

	state SubNoCState

	// Reconfiguration statistics.
	Reconfigs      int64
	ReconfigCycles int64 // cycles spent with injection gated
}

// State returns the current lifecycle state.
func (s *SubNoC) State() SubNoCState { return s.state }

// Fabric owns the subNoCs of one network.
type Fabric struct {
	cfg    Config
	net    *noc.Network
	kernel *sim.Kernel

	subnocs []*SubNoC
	shares  []*mcShare
	nextID  int

	// frozen stops all topology switching: the fault engine freezes the
	// fabric at its first strike so damage repair and reconfiguration
	// never race over the wiring. Freezing is permanent for the run.
	frozen bool
}

// Freeze permanently disables topology switching; subsequent Reconfigure
// calls become silent no-ops (their done callbacks still run).
func (f *Fabric) Freeze() { f.frozen = true }

// Frozen reports whether the fabric has been frozen.
func (f *Fabric) Frozen() bool { return f.frozen }

// New creates a fabric over a network whose routers get the Adapt-NoC port
// complement (4 adaptable-link mux ports beyond the mesh five). The
// network must be freshly constructed (no channels).
func New(net *noc.Network, kernel *sim.Kernel, cfg Config) *Fabric {
	for _, r := range net.Routers() {
		topology.EnsureAdaptPorts(r)
	}
	f := &Fabric{cfg: cfg, net: net, kernel: kernel}
	if kernel != nil {
		f.registerOps()
	}
	return f
}

// SubNoCs returns the live subNoCs (do not mutate).
func (f *Fabric) SubNoCs() []*SubNoC { return f.subnocs }

// Allocate creates a subNoC on a free region and configures its initial
// topology immediately (initial placement needs no runtime protocol: the
// region carries no traffic yet).
func (f *Fabric) Allocate(app int, reg topology.Region, kind topology.Kind, mcTile noc.NodeID, extraMCs ...noc.NodeID) (*SubNoC, error) {
	w, h := f.net.Cfg.Width, f.net.Cfg.Height
	if reg.X < 0 || reg.Y < 0 || reg.X+reg.W > w || reg.Y+reg.H > h {
		return nil, fmt.Errorf("fabric: region %v outside %dx%d grid", reg, w, h)
	}
	for _, sn := range f.subnocs {
		if sn.Region.Overlaps(reg) {
			return nil, fmt.Errorf("fabric: region %v overlaps subNoC %d (%v)", reg, sn.ID, sn.Region)
		}
	}
	if !reg.Contains(noc.CoordOf(mcTile, w)) {
		return nil, fmt.Errorf("fabric: MC tile %d outside region %v", mcTile, reg)
	}
	sn := &SubNoC{ID: f.nextID, App: app, Region: reg, Kind: kind, MCTile: mcTile,
		MCTiles: append([]noc.NodeID{mcTile}, extraMCs...)}
	f.nextID++
	f.configureRegion(sn, kind)
	f.subnocs = append(f.subnocs, sn)
	return sn, nil
}

// Lookup returns the subNoC owning a tile, or nil.
func (f *Fabric) Lookup(tile noc.NodeID) *SubNoC {
	c := noc.CoordOf(tile, f.net.Cfg.Width)
	for _, sn := range f.subnocs {
		if sn.Region.Contains(c) {
			return sn
		}
	}
	return nil
}

// configureRegion applies a topology to a region (the region's ports must
// be torn down or fresh) and installs the Ts table-setup stall.
func (f *Fabric) configureRegion(sn *SubNoC, kind topology.Kind) {
	switch kind {
	case topology.Mesh:
		topology.ConfigureMeshRegion(f.net, sn.Region)
	case topology.CMesh:
		topology.ConfigureCMeshRegion(f.net, sn.Region)
	case topology.Torus:
		topology.ConfigureTorusRegion(f.net, sn.Region)
	case topology.Tree:
		topology.ConfigureTreeRegion(f.net, sn.Region, sn.MCTile, sn.MCTiles)
	case topology.TorusTree:
		topology.ConfigureTorusTreeRegion(f.net, sn.Region, sn.MCTile, sn.MCTiles)
	default:
		panic(fmt.Sprintf("fabric: unknown topology kind %v", kind))
	}
	sn.Kind = kind
	now := sim.Cycle(0)
	if f.kernel != nil {
		now = f.kernel.Now()
	}
	for _, t := range sn.Region.Tiles(f.net.Cfg.Width) {
		r := f.net.Router(t)
		if !r.Disabled() {
			r.StallTables(now, f.cfg.SetupCycles)
		}
	}
}

// teardownRegion removes every intra-region channel, NI attachment, and
// routing table, and re-enables powered-off routers. The region must be
// quiescent.
func (f *Fabric) teardownRegion(reg topology.Region) {
	w := f.net.Cfg.Width
	inRegion := func(e noc.Endpoint) bool {
		switch e.Kind {
		case noc.EndRouter:
			return reg.Contains(noc.CoordOf(e.Router, w))
		case noc.EndNI:
			return reg.Contains(noc.CoordOf(e.NI, w))
		}
		return false
	}
	for _, t := range reg.Tiles(w) {
		f.net.DetachLocal(t)
	}
	for _, t := range reg.Tiles(w) {
		r := f.net.Router(t)
		for p := 0; p < r.NumPorts(); p++ {
			ch := r.OutputChannel(p)
			if ch == nil {
				continue
			}
			if !inRegion(ch.To) {
				// Boundary (MC-sharing) channels are torn down by
				// unshare, never here.
				panic(fmt.Sprintf("fabric: stray boundary channel %v->%v during teardown", ch.From, ch.To))
			}
			f.net.DisconnectOut(t, p)
		}
		r.SetDisabled(false)
		r.SetDateline(false)
		r.SetTable(noc.VNetRequest, nil)
		r.SetTable(noc.VNetReply, nil)
	}
}

// regionQuiescent reports whether no flit is buffered in the region's
// routers, in flight on its channels, or mid-stream at its NIs.
func (f *Fabric) regionQuiescent(reg topology.Region) bool {
	w := f.net.Cfg.Width
	for _, t := range reg.Tiles(w) {
		r := f.net.Router(t)
		if r.Occupancy() != 0 {
			return false
		}
		for p := 0; p < r.NumPorts(); p++ {
			if ch := r.OutputChannel(p); ch != nil && ch.Busy() {
				return false
			}
			if ch := r.InputChannel(p); ch != nil && ch.Busy() {
				return false
			}
		}
	}
	return true
}

// GateRegion blocks or unblocks new injections from every tile of a region.
func (f *Fabric) GateRegion(reg topology.Region, gated bool) {
	for _, t := range reg.Tiles(f.net.Cfg.Width) {
		f.net.NI(t).SetGated(gated)
	}
}
