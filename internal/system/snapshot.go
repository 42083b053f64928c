package system

// Checkpoint support: the machine's dynamic state is the per-core
// outstanding-request windows, the per-app epoch and lifetime counters,
// the memory-controller queues, and the outstanding transaction table.
// The workload-side execution position (retired/phase/RNG for profiles,
// the dependency bitmaps for traces) lives in the sources and is
// serialized through SnapSources into its own checkpoint section.
// Everything else (tile sets, thresholds, hot slice) is a pure function
// of the configuration and is rebuilt by NewApp.

import (
	"fmt"
	"sort"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/traffic"
)

func (w *WindowCounters) snapState(c *snap.Codec) {
	c.I64(&w.Retired)
	c.I64(&w.L1DMisses)
	c.I64(&w.L1IMisses)
	c.I64(&w.L2Misses)
	c.I64(&w.CoherencePackets)
	c.I64(&w.DataPackets)
	c.I64(&w.NetLatencySum)
	c.I64(&w.QueueLatencySum)
	c.I64(&w.HopSum)
	c.I64(&w.Delivered)
}

// SnapDrops is the per-app fault-drop tallies (sorted by app ID). It
// belongs to the fault checkpoint section, not the machine section, so
// pre-fault blobs keep decoding.
func (m *Machine) SnapDrops(c *snap.Codec) { snap.IntMap(c, &m.dropped) }

// Part-mark kinds inside the machine section (delta alignment only, never
// serialized; see snap.Part).
const (
	partMachHeader = iota
	partMachApp
	partMachCore
	partMachMC
	partMachTxn
)

// SnapState is the machine's dynamic state. Decoding overlays it onto a
// freshly constructed machine carrying the same applications; it must run
// before the network section so packet payloads can resolve transaction
// IDs.
func (m *Machine) SnapState(c *snap.Codec) {
	c.Mark(snap.PartKey(partMachHeader, 0))
	c.U64(&m.nextTxn)

	c.Len(len(m.apps), "system: apps")
	for _, a := range m.apps {
		c.Mark(snap.PartKey(partMachApp, uint64(a.ID)))
		c.I64((*int64)(&a.finishedAt))
		a.win.snapState(c)
		a.total.snapState(c)
		c.Len(len(a.cores), "system: app %d cores", a.ID)
		for ci, co := range a.cores {
			c.Mark(snap.PartKey(partMachCore, uint64(a.ID)<<16|uint64(ci)))
			c.Int(&co.outstanding)
		}
	}

	// Memory controllers, sorted by tile for a canonical encoding.
	var tiles []int
	if !c.Decoding() {
		tiles = make([]int, 0, len(m.mcs))
		for t := range m.mcs {
			tiles = append(tiles, int(t))
		}
		sort.Ints(tiles)
	}
	n := c.Count(len(tiles), 2)
	if c.Decoding() {
		m.mcs = make(map[noc.NodeID]*mcState, n)
	}
	for i := 0; i < n; i++ {
		var tile int
		var mc *mcState
		if c.Decoding() {
			mc = &mcState{}
		} else {
			tile, mc = tiles[i], m.mcs[noc.NodeID(tiles[i])]
		}
		c.Mark(snap.PartKey(partMachMC, uint64(tile)))
		c.Int(&tile)
		c.I64((*int64)(&mc.busyUntil))
		c.Int(&mc.queueLen)
		c.I64(&mc.served)
		if c.Decoding() {
			m.mcs[noc.NodeID(tile)] = mc
		}
	}

	// Outstanding transactions, sorted by ID.
	var ids []uint64
	if !c.Decoding() {
		ids = make([]uint64, 0, len(m.txns))
		for id := range m.txns {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	n = c.Count(len(ids), 3)
	if c.Decoding() {
		m.txns = make(map[uint64]*txn, n)
	}
	for i := 0; i < n; i++ {
		var t *txn
		var appID, ci int
		if c.Decoding() {
			t = &txn{}
		} else {
			t = m.txns[ids[i]]
			appID, ci = t.app.ID, coreIndex(t.app, t.core)
		}
		c.Mark(snap.PartKey(partMachTxn, t.id))
		c.U64(&t.id)
		c.Int(&appID)
		c.Int(&ci)
		c.Int((*int)(&t.slice))
		c.Int((*int)(&t.mc))
		c.Bool(&t.needsMC)
		c.Int((*int)(&t.stage))
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		if t.app = m.appByID(appID); t.app == nil {
			c.Failf("system: transaction %d references unknown app %d", t.id, appID)
		} else if ci < 0 || ci >= len(t.app.cores) {
			c.Failf("system: transaction %d references core %d of app %d", t.id, ci, appID)
		} else if t.stage < stageToSlice || t.stage > stageToMC {
			c.Failf("system: transaction %d has stage %d", t.id, t.stage)
		} else if t.id == 0 || t.id > m.nextTxn {
			c.Failf("system: transaction ID %d out of range", t.id)
		} else if m.txns[t.id] != nil {
			c.Failf("system: duplicate transaction %d", t.id)
		} else {
			t.core = t.app.cores[ci]
			m.txns[t.id] = t
		}
	}
}

func coreIndex(a *App, c *core) int {
	for i, x := range a.cores {
		if x == c {
			return i
		}
	}
	panic(fmt.Sprintf("system: core %d not in app %d", c.tile, a.ID))
}

// SnapSources is every application's workload-source state; it fills the
// checkpoint's "source" section. Decoding runs on identically constructed
// applications.
func (m *Machine) SnapSources(c *snap.Codec) {
	c.Len(len(m.apps), "system: sources")
	for _, a := range m.apps {
		c.Mark(snap.PartKey(traffic.PartSrcApp, uint64(a.ID)))
		a.src.SnapState(c)
	}
}

// PayloadState implements noc.PayloadCodec: the kind (see payloadNil…
// payloadTrace), then the reference word for the transaction and trace
// kinds. The kind is decoded as a full int and range-checked before it is
// narrowed, so no stored value wraps into a valid one. Transaction IDs
// resolve against the already-restored transaction table.
func (m *Machine) PayloadState(c *snap.Codec, payload *noc.Payload) {
	var kind int
	var ref uint64
	if !c.Decoding() {
		kind, ref = int(payload.Kind), payload.Ref
		if kind > int(payloadTrace) {
			c.Failf("system: unserializable payload kind %d", kind)
		}
	}
	c.Int(&kind)
	if kind == int(payloadTxn) || kind == int(payloadTrace) {
		c.U64(&ref)
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	switch {
	case kind < int(payloadNil) || kind > int(payloadTrace):
		c.Failf("system: unknown payload kind %d", kind)
	case kind == int(payloadTxn) && m.txns[ref] == nil:
		c.Failf("system: packet references unknown transaction %d", ref)
	default:
		*payload = noc.Payload{Kind: uint8(kind), Ref: ref}
	}
}
