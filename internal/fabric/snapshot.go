package fabric

// Checkpoint support. The fabric's dynamic state is small — each subNoC's
// currently configured topology, its reconfiguration lifecycle state, and
// its counters — but restoring it is structural: the restored fabric
// replays teardown+configure+reshare per region so the network's wiring
// and routing tables are rebuilt to match the checkpoint before the
// network's own dynamic overlay (buffered flits, credits) is applied.
// In-flight reconfiguration protocol steps live in the kernel's event
// list as descriptor events and need nothing here.

import (
	"adaptnoc/internal/snap"
	"adaptnoc/internal/topology"
)

// SnapState is the fabric's dynamic state. Decoding overlays it onto a
// freshly constructed fabric carrying the same subNoC allocation: regions
// whose checkpointed topology differs from the freshly built one are
// physically switched (shares re-established), which rebuilds channels and
// routing tables deterministically; the caller then overlays the network's
// dynamic state on top.
func (f *Fabric) SnapState(c *snap.Codec) {
	c.Int(&f.nextID)
	c.Len(len(f.subnocs), "fabric: subNoCs")
	for _, sn := range f.subnocs {
		id, kind := sn.ID, sn.Kind
		c.Int(&id)
		c.Int((*int)(&kind))
		c.Int((*int)(&sn.state))
		c.I64(&sn.Reconfigs)
		c.I64(&sn.ReconfigCycles)
		if !c.Decoding() {
			continue
		}
		switch {
		case id != sn.ID:
			c.Failf("fabric: checkpoint subNoC ID %d, fabric has %d", id, sn.ID)
		case kind < 0 || (kind >= topology.NumKinds && kind != topology.TorusTree):
			c.Failf("fabric: subNoC %d has topology kind %d", id, kind)
		case sn.state < StateActive || sn.state > StateSettingUp:
			c.Failf("fabric: subNoC %d has state %d", id, sn.state)
		}
		if c.Err() == nil && kind != sn.Kind {
			f.switchTopology(sn, kind)
		}
	}
}
