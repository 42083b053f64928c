package fabric

import (
	"fmt"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/topology"
)

// mcShare is one active memory-controller sharing arrangement
// (Section II-C.2, Fig. 5): the requester subNoC reaches the owner
// subNoC's MC through a single boundary crossing between adjacent
// peripheral routers. Only one crossing per share keeps the channel
// dependency graph acyclic (Section II-C.3).
type mcShare struct {
	requester *SubNoC
	owner     *SubNoC
	mcTile    noc.NodeID

	aTile, bTile noc.NodeID // crossing routers: a in requester, b in owner
	aPort, bPort int
}

// ShareMC lets a subNoC access a memory controller in an adjacent subNoC.
// It finds a free boundary crossing, wires the (otherwise unused) boundary
// link, and patches the routing tables on both sides: requests toward the
// foreign MC ride the requester's existing routes to the crossing router,
// cross, and then follow the owner's own MC routes; replies mirror the
// path. The share survives reconfigurations of either subNoC (it is
// re-established under the new topology, or dropped if no crossing fits).
func (f *Fabric) ShareMC(requester *SubNoC, mcTile noc.NodeID) error {
	owner := f.Lookup(mcTile)
	if owner == nil {
		return fmt.Errorf("fabric: MC tile %d is not in any subNoC", mcTile)
	}
	if owner == requester {
		return fmt.Errorf("fabric: MC tile %d already belongs to subNoC %d", mcTile, requester.ID)
	}
	for _, sh := range f.shares {
		if sh.requester == requester && sh.mcTile == mcTile {
			return fmt.Errorf("fabric: subNoC %d already shares MC %d", requester.ID, mcTile)
		}
	}
	return f.shareInternal(requester, mcTile, owner)
}

// shareInternal wires and routes a share, registering it on success.
func (f *Fabric) shareInternal(requester *SubNoC, mcTile noc.NodeID, owner *SubNoC) error {
	cr, ok := f.findCrossing(requester.Region, owner.Region)
	if !ok {
		return fmt.Errorf("fabric: no free boundary crossing between subNoC %d and %d",
			requester.ID, owner.ID)
	}
	aTile, bTile, aPort, bPort := cr.aTile, cr.bTile, cr.aPort, cr.bPort
	kind := noc.ChanMesh
	lat := f.net.Cfg.LinkLatency
	if cr.dist > 1 {
		// The crossing bridges powered-off routers on an adaptable-link
		// segment (cmesh boundaries).
		kind = noc.ChanAdaptable
		lat = f.net.Cfg.LongLinkLatency(cr.dist)
	}
	f.net.ConnectBidir(aTile, aPort, bTile, bPort, kind, lat, cr.dist)

	sh := &mcShare{
		requester: requester, owner: owner, mcTile: mcTile,
		aTile: aTile, bTile: bTile, aPort: aPort, bPort: bPort,
	}
	f.patchShareRoutes(sh)
	f.shares = append(f.shares, sh)
	return nil
}

// patchShareRoutes adds the foreign-destination entries on both sides.
func (f *Fabric) patchShareRoutes(sh *mcShare) {
	w := f.net.Cfg.Width

	// Requester side: route the foreign MC like the crossing tile, except
	// at the crossing router, which forwards over the boundary.
	for _, t := range sh.requester.Region.Tiles(w) {
		r := f.net.Router(t)
		if r.Disabled() {
			continue
		}
		for _, v := range []noc.VNet{noc.VNetRequest, noc.VNetReply} {
			tbl := r.Table(v).Clone()
			if t == sh.aTile {
				tbl.Set(sh.mcTile, sh.aPort, noc.ClassKeep)
			} else {
				e, ok := tbl.Lookup(sh.aTile)
				if !ok {
					continue
				}
				tbl.Set(sh.mcTile, int(e.OutPort), e.Class)
			}
			r.SetTable(v, tbl)
		}
	}

	// Owner side: route every requester tile like the crossing tile, so
	// MC replies reach the boundary and cross.
	reqTiles := sh.requester.Region.Tiles(w)
	for _, t := range sh.owner.Region.Tiles(w) {
		r := f.net.Router(t)
		if r.Disabled() {
			continue
		}
		for _, v := range []noc.VNet{noc.VNetRequest, noc.VNetReply} {
			tbl := r.Table(v).Clone()
			for _, rt := range reqTiles {
				if t == sh.bTile {
					tbl.Set(rt, sh.bPort, noc.ClassKeep)
					continue
				}
				e, ok := tbl.Lookup(sh.bTile)
				if !ok {
					continue
				}
				tbl.Set(rt, int(e.OutPort), e.Class)
			}
			r.SetTable(v, tbl)
		}
	}
}

// unshare removes the crossing channels and the foreign route entries.
func (f *Fabric) unshare(sn *SubNoC, sh *mcShare) {
	w := f.net.Cfg.Width
	f.net.DisconnectOut(sh.aTile, sh.aPort)
	f.net.DisconnectOut(sh.bTile, sh.bPort)
	for _, t := range sh.requester.Region.Tiles(w) {
		r := f.net.Router(t)
		if r.Disabled() {
			continue
		}
		for _, v := range []noc.VNet{noc.VNetRequest, noc.VNetReply} {
			if tb := r.Table(v); tb != nil {
				tb.Unset(sh.mcTile)
			}
		}
	}
	reqTiles := sh.requester.Region.Tiles(w)
	for _, t := range sh.owner.Region.Tiles(w) {
		r := f.net.Router(t)
		if r.Disabled() {
			continue
		}
		for _, v := range []noc.VNet{noc.VNetRequest, noc.VNetReply} {
			if tb := r.Table(v); tb != nil {
				for _, rt := range reqTiles {
					tb.Unset(rt)
				}
			}
		}
	}
	for i, s := range f.shares {
		if s == sh {
			f.shares = append(f.shares[:i], f.shares[i+1:]...)
			break
		}
	}
	_ = sn
}

// sharesQuiescent reports whether every share touching a subNoC's region
// has empty crossing channels and empty input buffers at both crossing
// routers — the crossing routers may lie outside the reconfiguring region,
// so regionQuiescent alone does not cover them.
func (f *Fabric) sharesQuiescent(sn *SubNoC) bool {
	for _, sh := range f.sharesTouching(sn.Region) {
		ra, rb := f.net.Router(sh.aTile), f.net.Router(sh.bTile)
		if !ra.PortEmpty(sh.aPort) || !rb.PortEmpty(sh.bPort) {
			return false
		}
		for _, ch := range []*noc.Channel{
			ra.OutputChannel(sh.aPort), rb.OutputChannel(sh.bPort),
		} {
			if ch != nil && ch.Busy() {
				return false
			}
		}
	}
	return true
}

// sharesTouching returns shares involving any tile of a region.
func (f *Fabric) sharesTouching(reg topology.Region) []*mcShare {
	var out []*mcShare
	for _, sh := range f.shares {
		if sh.requester.Region.Overlaps(reg) || sh.owner.Region.Overlaps(reg) {
			out = append(out, sh)
		}
	}
	return out
}

// crossing is a candidate boundary connection.
type crossing struct {
	aTile, bTile noc.NodeID
	aPort, bPort int
	dist         int
}

// findCrossing scans the shared boundary for an aligned active router pair
// with free facing ports on both sides. A direct neighbour pair uses the
// (otherwise unused) boundary mesh link, falling back to the adaptable-link
// mux ports when the topology occupies the mesh port (torus wraparounds).
// When the peripheral routers are powered off (cmesh concentration), the
// crossing bridges them with an adaptable-link segment of up to three
// tiles, exactly as the intra-region cmesh segments do.
func (f *Fabric) findCrossing(a, b topology.Region) (crossing, bool) {
	w := f.net.Cfg.Width
	dirs := []struct {
		dx, dy         int
		mesh, meshOpp  int
		adapt, adaptOp int
	}{
		{1, 0, noc.PortEast, noc.PortWest, topology.PortAdaptEast, topology.PortAdaptWest},
		{-1, 0, noc.PortWest, noc.PortEast, topology.PortAdaptWest, topology.PortAdaptEast},
		{0, 1, noc.PortSouth, noc.PortNorth, topology.PortAdaptSouth, topology.PortAdaptNorth},
		{0, -1, noc.PortNorth, noc.PortSouth, topology.PortAdaptNorth, topology.PortAdaptSouth},
	}
	grid := topology.Region{W: w, H: f.net.Cfg.Height}
	for _, at := range a.Tiles(w) {
		ra := f.net.Router(at)
		if ra.Disabled() {
			continue
		}
		ac := noc.CoordOf(at, w)
		for _, dir := range dirs {
			// Walk outward over powered-off routers until an active one.
			for dist := 1; dist <= 3; dist++ {
				bc := noc.Coord{X: ac.X + dist*dir.dx, Y: ac.Y + dist*dir.dy}
				if !grid.Contains(bc) {
					break
				}
				bt := bc.ID(w)
				rb := f.net.Router(bt)
				if rb.Disabled() {
					continue // bridge over it
				}
				if !b.Contains(bc) {
					break // hit an active router outside the owner region
				}
				// Try every free (a-port, b-port) combination.
				for _, pa := range []int{dir.mesh, dir.adapt} {
					for _, pb := range []int{dir.meshOpp, dir.adaptOp} {
						if pa >= ra.NumPorts() || pb >= rb.NumPorts() {
							continue
						}
						if ra.OutputChannel(pa) == nil && ra.InputChannel(pa) == nil &&
							rb.OutputChannel(pb) == nil && rb.InputChannel(pb) == nil {
							return crossing{aTile: at, bTile: bt, aPort: pa, bPort: pb, dist: dist}, true
						}
					}
				}
				break // active pair found but no free ports; try next direction
			}
		}
	}
	return crossing{}, false
}
