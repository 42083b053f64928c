// Package topology builds and configures network topologies on a
// noc.Network: the whole-chip baselines (mesh, shortcut mesh, flattened
// butterfly) and the per-region subNoC topologies the Adapt-NoC fabric
// switches between (mesh, cmesh, torus, tree — Section II-B).
//
// Builders wire channels onto router ports, attach NIs (with concentration
// where the topology calls for it), and install per-vnet routing tables.
// Every routing function here is deadlock-free: dimension-ordered XY for
// mesh/cmesh, XY with dateline VC classes for torus, up*/down* on the reply
// tree, and monotone express-first XY for shortcut and flattened butterfly.
// The deadlock package verifies these properties in tests.
package topology

import (
	"fmt"

	"adaptnoc/internal/noc"
)

// Adaptable-link port convention: under the Adapt-NoC fabric every router
// carries four extra ports attached (by mux) to the row/column adaptable
// links. Builders that need them call EnsureAdaptPorts first.
const (
	PortAdaptEast  = 5
	PortAdaptWest  = 6
	PortAdaptNorth = 7
	PortAdaptSouth = 8
	numAdaptPorts  = 9 // total ports on an Adapt-NoC router
)

// Kind names a subNoC topology — the RL action space (Section III-B).
type Kind int

// SubNoC topology kinds. The first four are the paper's RL action space;
// TorusTree is the Section II-B.4 extension combining a torus request
// network with a tree reply network (its tree segments ride the
// intermediate metal layers, keeping the high-metal budget intact).
const (
	Mesh Kind = iota
	CMesh
	Torus
	Tree
	NumKinds // size of the RL action space

	TorusTree Kind = NumKinds

	// NumSelectable counts every topology the fabric can configure,
	// including the TorusTree extension (selection histograms are sized
	// with this; the RL action space stays NumKinds).
	NumSelectable = NumKinds + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Mesh:
		return "mesh"
	case CMesh:
		return "cmesh"
	case Torus:
		return "torus"
	case Tree:
		return "tree"
	case TorusTree:
		return "torus+tree"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalText implements encoding.TextMarshaler, so JSON configurations
// carry topology names ("mesh", "torus+tree") rather than raw ints.
func (k Kind) MarshalText() ([]byte, error) {
	if k < Mesh || k >= NumSelectable {
		return nil, fmt.Errorf("topology: cannot marshal invalid kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. An empty string
// decodes to Mesh (the zero value), so omitted JSON fields keep their
// Go-zero-value meaning.
func (k *Kind) UnmarshalText(text []byte) error {
	s := string(text)
	if s == "" {
		*k = Mesh
		return nil
	}
	for _, cand := range []Kind{Mesh, CMesh, Torus, Tree, TorusTree} {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("topology: unknown kind %q (want mesh, cmesh, torus, tree, or torus+tree)", s)
}

// Region is a rectangular set of tiles [X, X+W) × [Y, Y+H).
type Region struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

// Contains reports whether the tile coordinate lies in the region.
func (r Region) Contains(c noc.Coord) bool {
	return c.X >= r.X && c.X < r.X+r.W && c.Y >= r.Y && c.Y < r.Y+r.H
}

// Tiles returns the region's tiles in row-major order for a grid of the
// given width.
func (r Region) Tiles(gridW int) []noc.NodeID {
	out := make([]noc.NodeID, 0, r.W*r.H)
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			out = append(out, noc.Coord{X: x, Y: y}.ID(gridW))
		}
	}
	return out
}

// Size returns the number of tiles.
func (r Region) Size() int { return r.W * r.H }

// Overlaps reports whether two regions share any tile.
func (r Region) Overlaps(o Region) bool {
	return r.X < o.X+o.W && o.X < r.X+r.W && r.Y < o.Y+o.H && o.Y < r.Y+r.H
}

// String implements fmt.Stringer.
func (r Region) String() string { return fmt.Sprintf("%dx%d@(%d,%d)", r.W, r.H, r.X, r.Y) }

// WholeChip returns the region covering the full grid.
func WholeChip(cfg noc.Config) Region { return Region{W: cfg.Width, H: cfg.Height} }

// EnsureAdaptPorts grows a router to the Adapt-NoC port count (5 mesh +
// 4 adaptable-link mux ports).
func EnsureAdaptPorts(r *noc.Router) {
	EnsurePorts(r, numAdaptPorts)
}

// EnsurePorts grows a router to at least n ports. Ports are never removed;
// an unattached port is powered off and costs nothing.
func EnsurePorts(r *noc.Router, n int) {
	for r.NumPorts() < n {
		r.AddPort()
	}
}

// MC injection-fanout ports: under the tree topologies the memory
// controllers' routers carry extra injection-only local ports so the reply
// streams are not limited to one flit per cycle — the paper's "maximize
// the fanout of the root router ... to provide sufficient injection
// bandwidth" (Section II-B.3), generalized to every MC of the region (our
// provisioning places one MC per 2x4 block; each is the local root of its
// reply subtree).
const (
	portMCInject0 = 9
	portMCInject1 = 10
	numTreePorts  = noc.MaxReconfigPorts
)

// attachMCInjection gives the root two extra injection ports and every
// other in-region MC one.
func attachMCInjection(net *noc.Network, reg Region, rootTile noc.NodeID, mcTiles []noc.NodeID) {
	w := net.Cfg.Width
	r := net.Router(rootTile)
	EnsurePorts(r, numTreePorts)
	net.AttachInjectionPort(rootTile, portMCInject0, []noc.NodeID{rootTile}, 1)
	net.AttachInjectionPort(rootTile, portMCInject1, []noc.NodeID{rootTile}, 1)
	for _, mc := range mcTiles {
		if mc == rootTile || !reg.Contains(noc.CoordOf(mc, w)) {
			continue
		}
		EnsurePorts(net.Router(mc), portMCInject0+1)
		net.AttachInjectionPort(mc, portMCInject0, []noc.NodeID{mc}, 1)
	}
}

// WireMeshRegion creates the nearest-neighbour mesh channels inside a
// region (idempotent wiring is the caller's responsibility: call on a
// region whose direction ports are unattached).
func WireMeshRegion(net *noc.Network, reg Region) {
	w := net.Cfg.Width
	for y := reg.Y; y < reg.Y+reg.H; y++ {
		for x := reg.X; x < reg.X+reg.W; x++ {
			id := noc.Coord{X: x, Y: y}.ID(w)
			if x+1 < reg.X+reg.W {
				east := noc.Coord{X: x + 1, Y: y}.ID(w)
				net.ConnectBidir(id, noc.PortEast, east, noc.PortWest,
					noc.ChanMesh, net.Cfg.LinkLatency, 1)
			}
			if y+1 < reg.Y+reg.H {
				south := noc.Coord{X: x, Y: y + 1}.ID(w)
				net.ConnectBidir(id, noc.PortSouth, south, noc.PortNorth,
					noc.ChanMesh, net.Cfg.LinkLatency, 1)
			}
		}
	}
}

// AttachOneToOne attaches every tile's NI to its own router.
func AttachOneToOne(net *noc.Network, reg Region) {
	for _, t := range reg.Tiles(net.Cfg.Width) {
		net.AttachLocal(t, []noc.NodeID{t}, 1)
	}
}

// xyPort returns the XY (X-first) output port from cur toward dst on a
// uniform mesh, or PortLocal when cur == dst.
func xyPort(cur, dst noc.Coord) int {
	switch {
	case dst.X > cur.X:
		return noc.PortEast
	case dst.X < cur.X:
		return noc.PortWest
	case dst.Y > cur.Y:
		return noc.PortSouth
	case dst.Y < cur.Y:
		return noc.PortNorth
	default:
		return noc.PortLocal
	}
}

// XYTableForRouter builds the XY routing table of one router for all tiles
// of a region, given the current NI attachments (tiles served by other
// routers route toward the serving router first).
func XYTableForRouter(net *noc.Network, router noc.NodeID, reg Region) *noc.RoutingTable {
	w := net.Cfg.Width
	t := noc.NewRoutingTable(net.Cfg.NumNodes())
	cur := noc.CoordOf(router, w)
	for _, tile := range reg.Tiles(w) {
		serving := net.ServingRouter(tile)
		if serving < 0 {
			continue
		}
		if serving == router {
			t.Set(tile, noc.PortLocal, noc.ClassKeep)
			continue
		}
		t.Set(tile, xyPort(cur, noc.CoordOf(serving, w)), noc.ClassKeep)
	}
	return t
}

// InstallXYTables installs XY tables on every active router of a region,
// for both virtual networks.
func InstallXYTables(net *noc.Network, reg Region) {
	for _, id := range reg.Tiles(net.Cfg.Width) {
		r := net.Router(id)
		if r.Disabled() {
			continue
		}
		tbl := XYTableForRouter(net, id, reg)
		r.SetTable(noc.VNetRequest, tbl)
		r.SetTable(noc.VNetReply, tbl)
		r.SetDateline(false)
	}
}

// ConfigureMeshRegion wires a region as a plain mesh: one router per tile,
// nearest-neighbour links, XY routing.
func ConfigureMeshRegion(net *noc.Network, reg Region) {
	WireMeshRegion(net, reg)
	AttachOneToOne(net, reg)
	InstallXYTables(net, reg)
}

// BuildMesh configures the whole chip as the baseline 8×8 mesh
// (design point 1 in Section IV-A).
func BuildMesh(net *noc.Network) {
	ConfigureMeshRegion(net, WholeChip(net.Cfg))
}
