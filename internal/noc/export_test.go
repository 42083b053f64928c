package noc

// Accessors for state that only tests inspect.

// RxPending returns the number of inbound packets this NI is currently
// reassembling — the whole of its reassembly state, bounded by the
// in-flight packet population rather than run length.
func (n *NI) RxPending() int { return n.rxOpen }

// Asleep reports whether the router is currently clock/power gated.
func (r *Router) Asleep() bool {
	r.syncIdle(r.net.lastTick)
	return r.asleep
}

// MakeFlits serializes a packet into a freshly allocated flit slab, for
// driving a channel without a network (the injection path carves pooled
// slabs with Network.makeFlits).
func MakeFlits(p *Packet) []Flit {
	if p.Size < 1 {
		panic("noc: packet with no flits")
	}
	return fillFlits(p, make([]Flit, p.Size))
}

// add accumulates another pool's counters.
func (s *PoolStats) add(o PoolStats) {
	s.PacketsCarved += o.PacketsCarved
	s.PacketsReused += o.PacketsReused
	s.PacketsFreed += o.PacketsFreed
	s.SlabsCarved += o.SlabsCarved
	s.SlabsReused += o.SlabsReused
	s.SlabsFreed += o.SlabsFreed
	s.ArenaFlits += o.ArenaFlits
}

// PoolStats returns the network's arena counters, summed over the shard
// pools. In steady state only the Reused/Freed counters advance; Carved
// counters advancing under constant load means recycling broke. The split
// between pools — unlike the simulation results — depends on the shard
// count, so PoolStats is diagnostic state and is not serialized in
// checkpoints.
func (n *Network) PoolStats() PoolStats {
	var s PoolStats
	for i := range n.pools {
		s.add(n.pools[i].stats)
	}
	return s
}
