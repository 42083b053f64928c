package power

// Checkpoint support. The meter's dynamic state is the accumulated energy
// account and the per-region collection timestamps; the technology
// parameters come from the run configuration. Router/NI/channel activity
// windows belong to the network's snapshot.

import "adaptnoc/internal/snap"

// SnapState is one energy account (also for callers that accumulate their
// own Breakdown, like the controller's per-binding energy).
func (b *Breakdown) SnapState(c *snap.Codec) {
	c.F64(&b.BufferPJ)
	c.F64(&b.CrossbarPJ)
	c.F64(&b.ArbitrationPJ)
	c.F64(&b.LinkPJ)
	c.F64(&b.MuxPJ)
	c.F64(&b.RLPJ)
	c.F64(&b.RouterStaticPJ)
	c.F64(&b.LinkStaticPJ)
}

// SnapState is the meter's dynamic state; collection timestamps are
// written sorted by region key.
func (m *Meter) SnapState(c *snap.Codec) {
	m.total.SnapState(c)
	snap.IntMap(c, &m.lastCollect)
}
