package traffic

// Recorder captures a live run into the ADNOCTRC dependency format. The
// machine reports every packet it injects plus the transaction lifecycle
// around it; the recorder turns that into a DAG in the Netrace style:
//
//   - A transaction's request packet depends on the issuing core's
//     previously completed transaction (program order), with the gap
//     between that completion and this issue preserved in cycles.
//   - A forward or reply packet depends on the transaction's previous
//     packet, with the gap covering whatever service latency (L2 lookup,
//     DRAM access, controller queueing) separated retirement from send.
//   - Coherence messages and raw replayed packets carry no dependencies;
//     their gap is absolute from recording start.
//
// Replay therefore self-paces: on a slower fabric the completions arrive
// later and every dependent packet slides with them, while the recorded
// compute/service gaps stay fixed.

import (
	"sort"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// recApp accumulates one application's trace.
type recApp struct {
	id      int
	profile string
	x, y    int
	w, h    int
	gridW   int
	mcs     []int32
	nodes   []TraceNode
	deps    []int32 // TraceApp.Deps: at most one entry per node

	last Stats // totals at the previous node, for per-node deltas

	// lastDone/lastDoneC chain a core's transactions in program order.
	lastDone  []int32
	lastDoneC []int64

	overflow bool
}

// recTxn tracks one in-flight transaction's position in the DAG.
type recTxn struct {
	app  *recApp
	core int
	// node is the transaction's most recent packet; nodeRetire its
	// delivery (or drop) cycle, filled in before the next send.
	node       int32
	hasNode    bool
	nodeRetire int64
}

// Recorder captures machine activity into a Trace. Wire it with
// Machine.SetRecorder before the first cycle of a fresh run.
type Recorder struct {
	gridW, gridH int
	apps         map[int]*recApp
	txns         map[uint64]*recTxn
}

// NewRecorder starts an empty recording for a gridW x gridH chip.
// Recording assumes cycle 0 start; resumed runs cannot be recorded.
func NewRecorder(gridW, gridH int) *Recorder {
	return &Recorder{
		gridW: gridW, gridH: gridH,
		apps: make(map[int]*recApp),
		txns: make(map[uint64]*recTxn),
	}
}

// AddApp registers one application's placement before recording starts.
// mcs are absolute tiles inside the region.
func (r *Recorder) AddApp(id int, profile string, x, y, w, h int, mcs []noc.NodeID) {
	a := &recApp{id: id, profile: profile, x: x, y: y, w: w, h: h, gridW: r.gridW}
	for _, mc := range mcs {
		if rel, ok := a.rel(mc); ok {
			a.mcs = append(a.mcs, rel)
		}
	}
	r.apps[id] = a
}

// rel converts an absolute tile to a region-relative index.
func (a *recApp) rel(tile noc.NodeID) (int32, bool) {
	tx, ty := int(tile)%a.gridW, int(tile)/a.gridW
	rx, ry := tx-a.x, ty-a.y
	if rx < 0 || ry < 0 || rx >= a.w || ry >= a.h {
		return 0, false
	}
	return int32(ry*a.w + rx), true
}

// addNode appends one packet node depending on node dep (none when
// negative) and returns its index (-1 once the per-app node cap is hit;
// the overflow is reported at Finish).
func (a *recApp) addNode(src, dst noc.NodeID, data bool, dep int32, gap int64, tot Stats) int32 {
	if a.overflow || len(a.nodes) >= maxTraceNodes {
		a.overflow = true
		return -1
	}
	n := TraceNode{Data: data}
	if dep >= 0 {
		n.NDeps = 1
		a.deps = append(a.deps, dep)
	}
	if rel, ok := a.rel(src); ok {
		n.Src = rel
	} else {
		n.Src, n.SrcAbs = int32(src), true
	}
	if rel, ok := a.rel(dst); ok {
		n.Dst = rel
	} else {
		n.Dst, n.DstAbs = int32(dst), true
	}
	if gap < 0 {
		gap = 0
	}
	if gap > 1<<32-1 {
		gap = 1<<32 - 1
	}
	n.Gap = uint32(gap)
	n.DRetired = tot.Retired - a.last.Retired
	n.DL1D = tot.L1DMisses - a.last.L1DMisses
	n.DL1I = tot.L1IMisses - a.last.L1IMisses
	n.DL2 = tot.L2Misses - a.last.L2Misses
	a.last = tot
	a.nodes = append(a.nodes, n)
	return int32(len(a.nodes) - 1)
}

func (a *recApp) growCore(core int) {
	for len(a.lastDone) <= core {
		a.lastDone = append(a.lastDone, -1)
		a.lastDoneC = append(a.lastDoneC, 0)
	}
}

// Coherence records a fire-and-forget control packet (no dependencies).
func (r *Recorder) Coherence(app int, src, dst noc.NodeID, now sim.Cycle, tot Stats) {
	if a := r.apps[app]; a != nil {
		a.addNode(src, dst, false, -1, int64(now), tot)
	}
}

// Packet records a raw injected packet (re-recording a trace replay).
func (r *Recorder) Packet(app int, src, dst noc.NodeID, data bool, now sim.Cycle, tot Stats) {
	if a := r.apps[app]; a != nil {
		a.addNode(src, dst, data, -1, int64(now), tot)
	}
}

// TxnStart registers a new memory transaction issued by a core.
func (r *Recorder) TxnStart(app, core int, id uint64) {
	if a := r.apps[app]; a != nil {
		a.growCore(core)
		r.txns[id] = &recTxn{app: a, core: core, node: -1}
	}
}

// TxnSend records one packet carrying transaction id.
func (r *Recorder) TxnSend(id uint64, src, dst noc.NodeID, data bool, now sim.Cycle, tot Stats) {
	t := r.txns[id]
	if t == nil {
		return
	}
	a := t.app
	dep := int32(-1)
	var gap int64
	switch {
	case t.hasNode:
		dep = t.node
		gap = int64(now) - t.nodeRetire
	case a.lastDone[t.core] >= 0:
		dep = a.lastDone[t.core]
		gap = int64(now) - a.lastDoneC[t.core]
	default:
		gap = int64(now)
	}
	if n := a.addNode(src, dst, data, dep, gap, tot); n >= 0 {
		t.node, t.hasNode = n, true
	}
}

// TxnPacketDone records that the transaction's in-flight packet retired
// (delivered, or dropped by a fault).
func (r *Recorder) TxnPacketDone(id uint64, now sim.Cycle) {
	if t := r.txns[id]; t != nil {
		t.nodeRetire = int64(now)
	}
}

// TxnEnd closes a transaction: its final packet becomes the issuing
// core's program-order anchor.
func (r *Recorder) TxnEnd(id uint64, now sim.Cycle) {
	t := r.txns[id]
	if t == nil {
		return
	}
	delete(r.txns, id)
	if t.hasNode {
		t.app.lastDone[t.core] = t.node
		t.app.lastDoneC[t.core] = int64(now)
	}
}

// Finish assembles the recording into a validated Trace.
func (r *Recorder) Finish() (*Trace, error) {
	ids := make([]int, 0, len(r.apps))
	for id := range r.apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	t := &Trace{GridW: r.gridW, GridH: r.gridH}
	for _, id := range ids {
		a := r.apps[id]
		if a.overflow {
			return nil, corruptf("recording exceeded %d nodes for app %d", maxTraceNodes, id)
		}
		t.Apps = append(t.Apps, TraceApp{
			Profile: a.profile,
			X:       a.x, Y: a.y, W: a.w, H: a.h,
			MCs:   a.mcs,
			Nodes: a.nodes,
			Deps:  a.deps,
		})
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}
