package noc

// Per-network allocation arena. Every packet and flit slab a network hands
// out in steady state comes from here, and every delivered packet returns
// here, so a warmed-up simulation ticks without touching the Go allocator
// at all (see BenchmarkNetworkTick and TestSteadyStateTickZeroAllocs).
//
// Two properties matter more than raw speed:
//
//   - Determinism. The free lists are plain LIFO stacks owned by one
//     network and driven only by simulation events, so the packet/slab a
//     call returns is a pure function of simulation history. sync.Pool
//     would not give that guarantee (its per-P caches drain on GC and vary
//     with scheduling), and the parallel experiment runner depends on every
//     simulation being bit-identical regardless of sibling load. Under tick
//     sharding each shard owns a pool of its own (Network.pools): the only
//     parallel allocation site is the injector's slab carve, which draws
//     from its shard's pool in deterministic per-region order, so the rule
//     survives — each pool's state is a pure function of its shard's
//     simulation history.
//
//   - Contiguity. A packet's flits are carved as one []Flit slab out of a
//     large arena block, so the flits that travel together sit together:
//     serializing, buffering, and ejecting a packet walks one cache line or
//     two instead of chasing Size separately-allocated objects.
//
// Pointers into an arena block stay valid forever — blocks are never grown
// in place or released, only carved and recycled — so *Flit and *Packet
// remain stable while a packet is in flight. They are NOT stable across
// packets: delivery recycles both (see Network.deliver), and the next
// NewPacket may reuse the same memory. Code observing the network must not
// retain either pointer past the delivery callback (Tracer documents the
// same contract).

// Arena block sizes. Packet blocks hold pktBlockSize packets; flit blocks
// hold flitBlockFlits flits and are carved into per-packet slabs. Both are
// cold-path constants: once the in-flight population peaks, no new block is
// ever allocated.
const (
	pktBlockSize   = 128
	flitBlockFlits = 1024
)

// PoolStats counts arena traffic; reuse counters prove that a steady-state
// simulation stops allocating (tests sum them with Network.PoolStats).
type PoolStats struct {
	PacketsCarved int64 // packets carved fresh from an arena block
	PacketsReused int64 // NewPacket calls served from the free list
	PacketsFreed  int64 // packets returned at delivery
	SlabsCarved   int64 // flit slabs carved fresh from an arena block
	SlabsReused   int64 // slabs served from a size-class free list
	SlabsFreed    int64 // slabs returned at delivery
	ArenaFlits    int64 // flits of arena capacity reserved
}

// slabClass is the free list for one flit-slab size. A network sees at
// most a handful of packet sizes (CtrlFlits, DataFlits), so classes are a
// linearly-scanned slice rather than a map.
type slabClass struct {
	size int
	free [][]Flit
}

// pool is the per-network arena plus free lists. The zero value is ready
// to use.
type pool struct {
	stats PoolStats

	freePkts []*Packet
	pktBlock []Packet // remaining tail of the current packet block

	flitBlock []Flit // remaining tail of the current flit block
	classes   []slabClass
}

// getPacket returns a packet with unspecified contents; the caller must
// overwrite every field (Network.NewPacket assigns a full struct literal).
func (pl *pool) getPacket() *Packet {
	if n := len(pl.freePkts); n > 0 {
		p := pl.freePkts[n-1]
		pl.freePkts[n-1] = nil
		pl.freePkts = pl.freePkts[:n-1]
		pl.stats.PacketsReused++
		return p
	}
	if len(pl.pktBlock) == 0 {
		pl.pktBlock = make([]Packet, pktBlockSize)
	}
	p := &pl.pktBlock[0]
	pl.pktBlock = pl.pktBlock[1:]
	pl.stats.PacketsCarved++
	return p
}

// putPacket returns a delivered packet to the free list. The caller has
// already cleared external references (Payload, flit slab).
func (pl *pool) putPacket(p *Packet) {
	pl.freePkts = append(pl.freePkts, p)
	pl.stats.PacketsFreed++
}

// getSlab returns a []Flit of exactly size flits, contiguous in one arena
// block, with unspecified contents (fillFlits overwrites every entry).
func (pl *pool) getSlab(size int) []Flit {
	for i := range pl.classes {
		c := &pl.classes[i]
		if c.size != size {
			continue
		}
		if n := len(c.free); n > 0 {
			s := c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
			pl.stats.SlabsReused++
			return s
		}
		break
	}
	if len(pl.flitBlock) < size {
		n := flitBlockFlits
		if size > n {
			n = size
		}
		pl.flitBlock = make([]Flit, n)
		pl.stats.ArenaFlits += int64(n)
	}
	s := pl.flitBlock[:size:size]
	pl.flitBlock = pl.flitBlock[size:]
	pl.stats.SlabsCarved++
	return s
}

// putSlab recycles a packet's flit slab into its size class.
func (pl *pool) putSlab(s []Flit) {
	pl.stats.SlabsFreed++
	size := len(s)
	for i := range pl.classes {
		if pl.classes[i].size == size {
			pl.classes[i].free = append(pl.classes[i].free, s)
			return
		}
	}
	pl.classes = append(pl.classes, slabClass{size: size, free: [][]Flit{s}})
}
