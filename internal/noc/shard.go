package noc

// Region-parallel tick sharding. The mesh is partitioned into contiguous
// bands of rows, one per shard; each band becomes a shardRegion owning the
// routers, NIs, injectors, and internal channels whose serving router sits
// in the band. Regions tick in parallel on a persistent sim.Gang and only
// the boundary channels — the router-to-router links whose endpoints sit
// in different bands — are ticked serially at the barrier, in canonical
// order. Determinism is argued in Network.Tick's comment; the partition
// itself is rebuilt by carve() whenever wiring or the shard count changes.

import (
	"math/bits"

	"adaptnoc/internal/sim"
)

// Gang phase selectors (see Network.Tick).
const (
	gangPhaseChannels = iota
	gangPhaseRouters
)

// shardRegion is one shard's slice of the network: the work lists,
// injector group, delivery buffer, and counters that its worker may touch
// without synchronization during the parallel phases. Every field mirrors
// the pre-sharding Network field of the same name; the per-region split
// keeps the PR-4 zero-alloc steady state per worker (each list reaches a
// stable capacity and stops growing).
type shardRegion struct {
	activeCh []*Channel
	wokenCh  []*Channel
	activeR  []*Router
	wokenR   []*Router
	injs     []*injector
	// injAwake is the tick set over injs: bit i set means injs[i] ticks.
	// A bitmask, not a wake list, so the set is walked in injs order —
	// (router, port), which decides which of a tree root's ports takes
	// which packet from their shared NI (DESIGN.md §8).
	injAwake []uint64

	// pending buffers the packets whose tail flit ejected this cycle; the
	// barrier replays them through the delivery callback in canonical
	// order. deliver is the closure appending to pending, built once so
	// the per-tail-flit call allocates nothing.
	pending []*Packet
	deliver DeliverFunc

	// Per-cycle counters folded into the network totals at the merge
	// phase.
	tickedCh      int64
	tickedR       int64
	flitsInjected int64
	flitsEjected  int64
}

// SetShards sets the number of tick shards; k < 1 is serial. The count is
// clamped to the row count (a shard owns at least one row). Sharding is a
// runtime execution knob, not simulation state — any value produces
// byte-identical results — so it is not part of Config and not serialized
// in checkpoints.
func (n *Network) SetShards(k int) {
	if k > n.Cfg.Height {
		k = n.Cfg.Height
	}
	if k < 1 {
		k = 1
	}
	if k == n.shards {
		return
	}
	n.shards = k
	n.carveDirty = true
}

// Shards returns the current tick shard count.
func (n *Network) Shards() int { return n.shards }

// StopWorkers releases the shard worker goroutines (idempotent). The
// network remains usable: the next Tick of a sharded network re-carves and
// restarts them. Call when parking a network for a long time so idle
// simulations do not pin goroutines.
func (n *Network) StopWorkers() {
	if n.gang != nil {
		n.gang.Stop()
		n.gang = nil
		n.carveDirty = true
	}
}

// shardOf returns the shard owning an endpoint. NI endpoints carry the
// serving router's ID in their NI field (see attachLocalPort), so every
// injection, ejection, and concentration channel lands in its router's
// shard and only router-to-router links can cross shards.
func (n *Network) shardOf(e Endpoint) int {
	if e.Kind == EndRouter {
		return n.routers[e.Router].shard
	}
	return n.routers[e.NI].shard
}

// RowBand returns the rows [lo, hi) that shard i of k owns on a grid h
// rows tall: band i covers rows [i·h/k, (i+1)·h/k), so for 1 ≤ k ≤ h the
// bands are contiguous, cover every row once, and differ in height by at
// most one. It is the sharded tick's one banding rule; carve applies it to
// the shard count SetShards clamped.
func RowBand(h, k, i int) (lo, hi int) { return i * h / k, (i + 1) * h / k }

// carve (re)builds the shard partition from live state: assigns every
// router, channel, and injector to its region, rebuilds the per-region
// work lists, and sizes the worker gang. It runs at the next Tick after
// any wiring mutation, shard-count change, or checkpoint restore — the
// work lists are derived state, so rebuilding them cannot change what the
// simulation computes:
//
//   - a channel is on an active list if and only if it is Busy, which is
//     exactly the queued invariant the incremental wake/compact protocol
//     maintains (wake implies Busy; entries drain only inside tickChannel;
//     a ticked channel is kept only while Busy);
//   - a router is on an active list if and only if it is not parked;
//   - list order is unobservable (Tick's canonical delivery replay is the
//     only same-cycle ordering the simulation can see).
func (n *Network) carve() {
	n.carveDirty = false
	k := n.shards
	w, h := n.Cfg.Width, n.Cfg.Height

	for len(n.pools) < k {
		n.pools = append(n.pools, pool{})
	}

	if len(n.regions) != k {
		n.regions = make([]*shardRegion, k)
		for i := range n.regions {
			reg := &shardRegion{}
			reg.deliver = func(p *Packet, now sim.Cycle) { reg.pending = append(reg.pending, p) }
			n.regions[i] = reg
		}
	} else {
		for _, reg := range n.regions {
			for i := range reg.activeCh {
				reg.activeCh[i] = nil
			}
			reg.activeCh = reg.activeCh[:0]
			for i := range reg.wokenCh {
				reg.wokenCh[i] = nil
			}
			reg.wokenCh = reg.wokenCh[:0]
			for i := range reg.activeR {
				reg.activeR[i] = nil
			}
			reg.activeR = reg.activeR[:0]
			for i := range reg.wokenR {
				reg.wokenR[i] = nil
			}
			reg.wokenR = reg.wokenR[:0]
			for i := range reg.injs {
				reg.injs[i] = nil
			}
			reg.injs = reg.injs[:0]
		}
	}

	// Row→shard map: contiguous full-width bands placed by RowBand. Built
	// by iterating the bands — the closed-form inverse y*k/h misassigns
	// rows when h % k != 0.
	if cap(n.rowShard) < h {
		n.rowShard = make([]int, h)
	}
	rows := n.rowShard[:h]
	for i := 0; i < k; i++ {
		lo, hi := RowBand(h, k, i)
		for y := lo; y < hi; y++ {
			rows[y] = i
		}
	}

	// Routers: a Y band is a contiguous row-major ID range, so iterating
	// in ID order yields each region's active list in ID order.
	for _, r := range n.routers {
		r.shard = rows[int(r.ID)/w]
		if !r.parked {
			n.regions[r.shard].activeR = append(n.regions[r.shard].activeR, r)
		}
	}

	// Channels, in canonical order so every region list and the boundary
	// list are pure functions of live state. Boundary channels stay
	// permanently queued: their wake() must be a no-op because the sending
	// region may not touch another region's work list.
	for i := range n.boundaryCh {
		n.boundaryCh[i] = nil
	}
	n.boundaryCh = n.boundaryCh[:0]
	for _, ch := range n.sortedChannels() {
		s := n.shardOf(ch.From)
		ch.shard = s
		if d := n.shardOf(ch.To); d != s {
			ch.boundary = true
			ch.queued = true
			n.boundaryCh = append(n.boundaryCh, ch)
			continue
		}
		ch.boundary = false
		if ch.Busy() {
			ch.queued = true
			n.regions[s].activeCh = append(n.regions[s].activeCh, ch)
		} else {
			// An idle channel leaving boundary duty is unqueued so its
			// next send wakes it.
			ch.queued = false
		}
	}

	// Injectors: grouping the (router, port)-sorted injection list by
	// region preserves the global order as the concatenation of the
	// per-region orders (a region is a contiguous ID range).
	// Every injector starts awake; its first tick parks it if idle.
	for _, inj := range n.injList {
		s := inj.router.shard
		inj.poolIdx = s
		inj.reg = n.regions[s]
		inj.idx = len(inj.reg.injs)
		inj.reg.injs = append(inj.reg.injs, inj)
	}
	for _, reg := range n.regions {
		reg.injAwake = reg.injAwake[:0]
		for left := len(reg.injs); left > 0; left -= 64 {
			reg.injAwake = append(reg.injAwake, ^uint64(0)>>(64-min(left, 64)))
		}
	}

	// Worker gang: k-1 workers (the caller's goroutine runs region 0
	// between Kick and Wait). Serial networks hold no workers at all so
	// idle simulations pin no goroutines.
	if k > 1 {
		if n.gang != nil && n.gang.Workers() != k-1 {
			n.gang.Stop()
			n.gang = nil
		}
		if n.gang == nil {
			n.gang = sim.NewGang(k-1, func(worker, phase int) {
				reg := n.regions[worker+1]
				if phase == gangPhaseChannels {
					n.regionChannels(reg, n.gangNow)
				} else {
					n.regionRouters(reg, n.gangNow)
				}
			})
		}
	} else if n.gang != nil {
		n.gang.Stop()
		n.gang = nil
	}
}

// regionChannels is one region's share of the channel phase: merge the
// channels woken since the previous tick (router traversals, injector
// sends, ejection credits — their earliest delivery is this cycle at the
// soonest, so merging here loses nothing), then tick the internal active
// list with keep-compaction.
func (n *Network) regionChannels(reg *shardRegion, now sim.Cycle) {
	if len(reg.wokenCh) > 0 {
		reg.activeCh = append(reg.activeCh, reg.wokenCh...)
		reg.wokenCh = reg.wokenCh[:0]
	}
	keep := reg.activeCh[:0]
	for _, ch := range reg.activeCh {
		if !ch.active {
			ch.queued = false
			continue
		}
		n.tickChannel(ch, now, reg)
		reg.tickedCh++
		if ch.Busy() {
			keep = append(keep, ch)
		} else {
			ch.queued = false
		}
	}
	for i := len(keep); i < len(reg.activeCh); i++ {
		reg.activeCh[i] = nil
	}
	reg.activeCh = keep
}

// regionRouters is one region's share of the router phase: merge routers
// woken by this cycle's deliveries (they must still tick this cycle),
// tick the active list with park-compaction, then run the region's awake
// injectors in deterministic (router, port) order, dropping those that park.
func (n *Network) regionRouters(reg *shardRegion, now sim.Cycle) {
	if len(reg.wokenR) > 0 {
		reg.activeR = append(reg.activeR, reg.wokenR...)
		reg.wokenR = reg.wokenR[:0]
	}
	reg.tickedR += int64(len(reg.activeR))
	keep := reg.activeR[:0]
	for _, r := range reg.activeR {
		r.Tick(now)
		if !r.parked {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(reg.activeR); i++ {
		reg.activeR[i] = nil
	}
	reg.activeR = keep

	for w, word := range reg.injAwake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if reg.injs[w<<6|b].tick(now) {
				reg.injAwake[w] &^= 1 << b
			}
		}
	}
}
