// Package noc implements a cycle-accurate network-on-chip model equivalent
// in abstraction level to the GARNET network model used by the paper:
// virtual-channel routers with RC/VA/SA/ST pipeline stages, virtual
// cut-through flow control with credits, configurable per-router pipeline
// latency (Tr) and per-channel latency (Tl), virtual networks for protocol
// deadlock avoidance, and network interfaces with per-vnet injection queues.
//
// The model is cycle-driven: Network implements sim.Ticker and advances
// channels, routers, and network interfaces once per cycle in a fixed order
// chosen so that all cross-component communication has register (one-cycle)
// semantics.
//
// Topology is expressed as a set of directed Channels attached to router
// Ports plus per-router, per-vnet routing tables; packages topology and
// fabric build and reconfigure these. A port's channel attachment models
// the paper's input/output muxes: at any instant one channel drives a port.
package noc

import "fmt"

// NodeID identifies a tile (core / cache slice / memory controller site) in
// the manycore grid, row-major: id = y*Width + x.
type NodeID int

// Coord is a tile position in the grid.
type Coord struct{ X, Y int }

// ID returns the row-major NodeID of the coordinate in a grid of width w.
func (c Coord) ID(w int) NodeID { return NodeID(c.Y*w + c.X) }

// CoordOf returns the coordinate of id in a grid of width w.
func CoordOf(id NodeID, w int) Coord { return Coord{X: int(id) % w, Y: int(id) / w} }

// VNet is a virtual network index. Two virtual networks separate request
// and reply packets, eliminating protocol deadlock (Section II-C.3).
type VNet int

// Virtual networks.
const (
	VNetRequest VNet = 0 // coherence requests, read/write requests
	VNetReply   VNet = 1 // data replies from caches and memory controllers
	NumVNets         = 2
)

// MaxPortVCs bounds the VCs of one port (NumVNets × VCsPerVNet): a router
// tracks a port's occupied VCs in one 64-bit mask.
const MaxPortVCs = 64

// String implements fmt.Stringer.
func (v VNet) String() string {
	switch v {
	case VNetRequest:
		return "request"
	case VNetReply:
		return "reply"
	default:
		return fmt.Sprintf("vnet(%d)", int(v))
	}
}

// PacketClass distinguishes the two message kinds the RL state vector
// counts (Table I: "Number of coherence packets", "Number of data packets").
type PacketClass int

// Packet classes.
const (
	ClassCoherence PacketClass = iota // single-flit control message
	ClassData                         // multi-flit cache-line-bearing message
)

// String implements fmt.Stringer.
func (c PacketClass) String() string {
	if c == ClassCoherence {
		return "coherence"
	}
	return "data"
}

// Standard port roles. A mesh router has the first five; concentration and
// express (adaptable-link) attachments add further ports at runtime.
const (
	PortLocal = 0 // to/from the network interface(s)
	PortEast  = 1 // +x
	PortWest  = 2 // -x
	PortNorth = 3 // +y
	PortSouth = 4 // -y
)

// DirPortName names the canonical ports for diagnostics.
func DirPortName(p int) string {
	switch p {
	case PortLocal:
		return "local"
	case PortEast:
		return "east"
	case PortWest:
		return "west"
	case PortNorth:
		return "north"
	case PortSouth:
		return "south"
	default:
		return fmt.Sprintf("ext%d", p)
	}
}

// Config carries the microarchitectural parameters shared by every design
// point in the evaluation (Section IV-A).
type Config struct {
	Width, Height int // grid dimensions in tiles

	VCsPerVNet int // virtual channels per virtual network per input port
	VCDepth    int // buffer depth per VC, in flits

	RouterLatency int // Tr: cycles from head arrival to switch traversal
	LinkLatency   int // Tl: cycles per mesh-link hop

	CtrlFlits int // flits per coherence/control packet
	DataFlits int // flits per data packet (header + cache line)

	// InjectionBypass enables the Adapt-NoC bypass path at the injection
	// port's VCs: flits entering via the local port skip the input pipeline
	// delay when their VC is empty (Section II-A.1).
	InjectionBypass bool

	// MMPerTile is the tile edge length in millimetres, used to derive
	// long-link latencies (1 cycle per HighMetalMMPerCycle mm).
	MMPerTile float64
	// HighMetalMMPerCycle is the distance a signal covers per cycle on the
	// high metal layers used for long adaptable/express links.
	HighMetalMMPerCycle float64
	// IntermediateMMPerCycle is the same for the intermediate metal
	// layers (M4-M6; ~5x slower per mm at 45 nm).
	IntermediateMMPerCycle float64
}

// DefaultConfig returns the common parameters from Section IV-A: 8x8 grid,
// 4-flit virtual cut-through VCs, Tr=2, Tl=1, 256-bit links (1-flit control
// packets, 3-flit data packets carrying a 64-byte line), 1 mm tiles, and
// 4 mm/cycle high-metal links.
func DefaultConfig() Config {
	return Config{
		Width: 8, Height: 8,
		VCsPerVNet:             3,
		VCDepth:                4,
		RouterLatency:          2,
		LinkLatency:            1,
		CtrlFlits:              1,
		DataFlits:              3,
		MMPerTile:              1.0,
		HighMetalMMPerCycle:    4.0,
		IntermediateMMPerCycle: 2.0,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: invalid grid %dx%d", c.Width, c.Height)
	case c.VCsPerVNet <= 0:
		return fmt.Errorf("noc: need at least one VC per vnet, got %d", c.VCsPerVNet)
	case NumVNets*c.VCsPerVNet > MaxPortVCs:
		return fmt.Errorf("noc: %d VCs per vnet give a port %d VCs, limit %d",
			c.VCsPerVNet, NumVNets*c.VCsPerVNet, MaxPortVCs)
	case c.VCDepth < c.DataFlits:
		return fmt.Errorf("noc: virtual cut-through requires VC depth >= packet size (%d < %d)",
			c.VCDepth, c.DataFlits)
	case c.RouterLatency < 1:
		return fmt.Errorf("noc: router latency must be >= 1, got %d", c.RouterLatency)
	case c.LinkLatency < 1:
		return fmt.Errorf("noc: link latency must be >= 1, got %d", c.LinkLatency)
	case c.CtrlFlits < 1 || c.DataFlits < 1:
		return fmt.Errorf("noc: packet sizes must be >= 1 flit")
	}
	return nil
}

// NumNodes returns the tile count.
func (c Config) NumNodes() int { return c.Width * c.Height }

// LongLinkLatency returns the cycle latency of a high-metal link spanning
// the given number of tile edges, at least one cycle.
func (c Config) LongLinkLatency(tiles int) int {
	return c.linkLatencyAt(tiles, c.HighMetalMMPerCycle)
}

// IntermediateLinkLatency is LongLinkLatency on the slower intermediate
// metal layers.
func (c Config) IntermediateLinkLatency(tiles int) int {
	return c.linkLatencyAt(tiles, c.IntermediateMMPerCycle)
}

func (c Config) linkLatencyAt(tiles int, mmPerCycle float64) int {
	if tiles < 0 {
		tiles = -tiles
	}
	if mmPerCycle <= 0 {
		mmPerCycle = 1
	}
	mm := float64(tiles) * c.MMPerTile
	lat := int((mm + mmPerCycle - 1) / mmPerCycle)
	if lat < 1 {
		lat = 1
	}
	return lat
}
