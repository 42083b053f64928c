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
