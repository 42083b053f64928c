package traffic

// Dependency-trace format ("ADNOCTRC") and the TraceSource that replays
// it. A trace is a per-application DAG of packets in the Netrace style:
// each node names the packets that must retire (deliver or drop) before
// it becomes eligible, plus a gap in cycles between that release and its
// injection. Replay therefore adapts to the network it runs on — a slow
// fabric delays dependents instead of injecting an impossible schedule —
// while staying fully deterministic.
//
// Framing is the checkpoint codec's (snap.SealAs): magic + version + a
// gzip-compressed snap-section body, with every length bounds-checked
// before allocation (the trace decoder has its own fuzz target).

import (
	"encoding/binary"
	"fmt"
	"sort"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// Trace framing constants.
const (
	// TraceMagic identifies a dependency-trace blob.
	TraceMagic = "ADNOCTRC"
	// TraceVersion bumps on any format change; readers reject others.
	TraceVersion = 1
)

// Decode-side caps: a trace travels inside configs and over the serving
// API, so a few bytes must not be able to demand gigabytes.
const (
	maxTraceApps    = 64
	maxTraceNodes   = 1 << 24
	maxNodeDeps     = 16
	maxTraceGridDim = 64
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("traffic: %s", fmt.Sprintf(format, args...))
}

// TraceNode is one recorded packet. It holds no pointers, so a decoded
// node array is a single allocation the garbage collector never scans.
type TraceNode struct {
	// Src and Dst are region-relative tile indices (ry*W + rx), or
	// absolute tile IDs on the recorded grid when the matching Abs flag
	// is set (foreign-MC traffic crosses the region boundary).
	Src, Dst       int32
	SrcAbs, DstAbs bool
	// Data selects the multi-flit data class on the reply vnet.
	Data bool
	// NDeps counts this node's entries in TraceApp.Deps: earlier nodes
	// that must retire before it is released. Zero releases at recording
	// start.
	NDeps uint8
	// Gap is the cycle distance between release and injection.
	Gap uint32
	// DRetired/DL1D/DL1I/DL2 are the instruction/cache stat deltas folded
	// into the app's counters when this node injects, reconstructing the
	// recorded run's observable progress alongside its traffic.
	DRetired, DL1D, DL1I, DL2 int64
}

// TraceApp is one application's recorded stream.
type TraceApp struct {
	// Profile is the recorded workload's label (results tables reuse it).
	Profile string
	// X, Y, W, H is the recorded region placement.
	X, Y, W, H int
	// MCs are the recorded memory controllers, region-relative.
	MCs   []int32
	Nodes []TraceNode
	// Deps is every node's dependency list back to back, in node order:
	// node i's list is the NDeps entries after those of nodes 0..i-1.
	// Every reader walks the nodes in order, so a running offset finds
	// each list.
	Deps []int32
}

// Trace is a decoded dependency trace.
type Trace struct {
	// GridW, GridH is the chip the trace was recorded on.
	GridW, GridH int
	Apps         []TraceApp
}

// validate bounds every field so a hostile blob cannot build an
// inconsistent source. Dependencies may only point backwards, which makes
// any decoded trace a DAG by construction.
func (t *Trace) validate() error {
	if t.GridW < 2 || t.GridH < 2 || t.GridW > maxTraceGridDim || t.GridH > maxTraceGridDim {
		return corruptf("trace grid %dx%d out of range", t.GridW, t.GridH)
	}
	if len(t.Apps) == 0 || len(t.Apps) > maxTraceApps {
		return corruptf("trace has %d apps, want 1..%d", len(t.Apps), maxTraceApps)
	}
	for ai := range t.Apps {
		a := &t.Apps[ai]
		if a.W < 1 || a.H < 1 || a.X < 0 || a.Y < 0 ||
			a.X+a.W > t.GridW || a.Y+a.H > t.GridH {
			return corruptf("trace app %d region %d,%d %dx%d outside %dx%d grid",
				ai, a.X, a.Y, a.W, a.H, t.GridW, t.GridH)
		}
		region := int32(a.W * a.H)
		grid := int32(t.GridW * t.GridH)
		for mi, mc := range a.MCs {
			if mc < 0 || mc >= region {
				return corruptf("trace app %d MC %d: tile %d outside region", ai, mi, mc)
			}
		}
		if len(a.Nodes) > maxTraceNodes {
			return corruptf("trace app %d has %d nodes, limit %d", ai, len(a.Nodes), maxTraceNodes)
		}
		deps := a.Deps // node ni's list starts here
		for ni := range a.Nodes {
			n := &a.Nodes[ni]
			srcLim, dstLim := region, region
			if n.SrcAbs {
				srcLim = grid
			}
			if n.DstAbs {
				dstLim = grid
			}
			if n.Src < 0 || n.Src >= srcLim || n.Dst < 0 || n.Dst >= dstLim {
				return corruptf("trace app %d node %d: endpoint out of range", ai, ni)
			}
			if n.SrcAbs == n.DstAbs && n.Src == n.Dst {
				return corruptf("trace app %d node %d: src == dst", ai, ni)
			}
			if n.NDeps > maxNodeDeps {
				return corruptf("trace app %d node %d: %d deps, limit %d", ai, ni, n.NDeps, maxNodeDeps)
			}
			if int(n.NDeps) > len(deps) {
				return corruptf("trace app %d node %d: %d deps overrun the dependency list", ai, ni, n.NDeps)
			}
			for _, d := range deps[:n.NDeps] {
				if d < 0 || d >= int32(ni) {
					return corruptf("trace app %d node %d: dep %d not an earlier node", ai, ni, d)
				}
			}
			deps = deps[n.NDeps:]
		}
		if len(deps) != 0 {
			return corruptf("trace app %d: %d dependency list entries belong to no node", ai, len(deps))
		}
	}
	return nil
}

// FitsGrid checks that every absolute endpoint of the recorded stream
// lands on a w×h replay grid. Region-relative endpoints move with the
// region, but absolute ones (foreign-MC traffic) were recorded against
// the full chip and must exist on the chip replaying them.
func (a *TraceApp) FitsGrid(w, h int) error {
	grid := int32(w * h)
	for ni := range a.Nodes {
		n := &a.Nodes[ni]
		if (n.SrcAbs && n.Src >= grid) || (n.DstAbs && n.Dst >= grid) {
			return corruptf("trace node %d: absolute endpoint outside the %dx%d replay grid", ni, w, h)
		}
	}
	return nil
}

// EncodeTrace serializes a trace. The encoding is deterministic: equal
// traces yield equal bytes, so trace content is content-addressable
// wherever configs are.
func EncodeTrace(t *Trace) ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	var body snap.Writer
	var meta snap.Writer
	meta.Int(t.GridW)
	meta.Int(t.GridH)
	meta.Uvarint(uint64(len(t.Apps)))
	body.Section("meta", meta.Bytes())
	for ai := range t.Apps {
		a := &t.Apps[ai]
		var w snap.Writer
		w.String(a.Profile)
		w.Int(a.X)
		w.Int(a.Y)
		w.Int(a.W)
		w.Int(a.H)
		w.Uvarint(uint64(len(a.MCs)))
		for _, mc := range a.MCs {
			w.Varint(int64(mc))
		}
		w.Uvarint(uint64(len(a.Nodes)))
		deps := a.Deps
		for ni := range a.Nodes {
			n := &a.Nodes[ni]
			var flags byte
			if n.Data {
				flags |= 1
			}
			if n.SrcAbs {
				flags |= 2
			}
			if n.DstAbs {
				flags |= 4
			}
			w.Uvarint(uint64(flags))
			w.Varint(int64(n.Src))
			w.Varint(int64(n.Dst))
			w.Uvarint(uint64(n.Gap))
			w.Uvarint(uint64(n.NDeps))
			for _, d := range deps[:n.NDeps] {
				// Backward distance: small for the chain-shaped deps the
				// recorder emits, so it varint-packs tightly.
				w.Uvarint(uint64(int32(ni) - d))
			}
			deps = deps[n.NDeps:]
			w.Varint(n.DRetired)
			w.Varint(n.DL1D)
			w.Varint(n.DL1I)
			w.Varint(n.DL2)
		}
		body.Section("app", w.Bytes())
	}

	return snap.SealAs(TraceMagic, TraceVersion, body.Bytes()), nil
}

// DecodeTrace parses and validates a trace blob. It is safe on
// adversarial input: every count is bounds-checked before allocation and
// the decompressed size is capped.
func DecodeTrace(blob []byte) (*Trace, error) {
	bodyBytes, err := snap.OpenAs(TraceMagic, TraceVersion, blob)
	if err != nil {
		return nil, corruptf("trace framing: %v", err)
	}
	r := snap.NewReader(bodyBytes)
	mr, err := r.Section("meta")
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	if t.GridW, err = mr.Int(); err != nil {
		return nil, err
	}
	if t.GridH, err = mr.Int(); err != nil {
		return nil, err
	}
	// Plain Uvarint, not Count: the app sections follow in the parent
	// reader, so the meta section's own remaining length proves nothing.
	nApps, err := mr.Uvarint()
	if err != nil {
		return nil, err
	}
	if err := mr.Done(); err != nil {
		return nil, err
	}
	if nApps == 0 || nApps > maxTraceApps {
		return nil, corruptf("trace has %d apps, limit %d", nApps, maxTraceApps)
	}
	t.Apps = make([]TraceApp, nApps)
	for ai := range t.Apps {
		ar, err := r.Section("app")
		if err != nil {
			return nil, err
		}
		if err := decodeTraceApp(ar, &t.Apps[ai]); err != nil {
			return nil, fmt.Errorf("traffic: trace app %d: %w", ai, err)
		}
		if err := ar.Done(); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeTraceApp reads one app section. Its errors name no package:
// DecodeTrace prefixes the package and the app.
func decodeTraceApp(r *snap.Reader, a *TraceApp) error {
	var err error
	if a.Profile, err = r.String(); err != nil {
		return err
	}
	for _, dst := range []*int{&a.X, &a.Y, &a.W, &a.H} {
		if *dst, err = r.Int(); err != nil {
			return err
		}
	}
	nMCs, err := r.Count(1)
	if err != nil {
		return err
	}
	a.MCs = make([]int32, nMCs)
	for i := range a.MCs {
		v, err := r.Varint()
		if err != nil {
			return err
		}
		if int64(int32(v)) != v {
			return fmt.Errorf("MC %d: tile %d overflows", i, v)
		}
		a.MCs[i] = int32(v)
	}
	// Minimum node encoding: flags + src + dst + gap + dep count + four
	// stat deltas = 9 bytes.
	nNodes, err := r.Count(9)
	if err != nil {
		return err
	}
	if nNodes > maxTraceNodes {
		return fmt.Errorf("%d nodes, limit %d", nNodes, maxTraceNodes)
	}
	a.Nodes = make([]TraceNode, nNodes)
	return decodeTraceNodes(r.Rest(), a)
}

// decodeTraceNodes parses a's node records, which run to the end of buf.
// It is the decoder's hot loop, so it walks buf with a local offset and
// reads most fields, which are small, through a one-byte varint fast
// path; a bad varint is reported once per node, not per field.
func decodeTraceNodes(buf []byte, a *TraceApp) error {
	off := 0
	var bad bool
	// next reads one uvarint, flagging a truncated or overlong one (bad
	// stays set, so the values after it are never used).
	next := func() uint64 {
		if off < len(buf) && buf[off] < 0x80 {
			off++
			return uint64(buf[off-1])
		}
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			bad = true
			return 0
		}
		off += n
		return v
	}
	for ni := range a.Nodes {
		n := &a.Nodes[ni]
		flags := next()
		src, dst := unzigzag(next()), unzigzag(next())
		gap := next()
		nDeps := next()
		switch {
		case bad:
			return fmt.Errorf("node %d: bad varint", ni)
		case flags&^uint64(7) != 0:
			return fmt.Errorf("node %d: unknown flags %#x", ni, flags)
		case int64(int32(src)) != src || int64(int32(dst)) != dst:
			return fmt.Errorf("node %d: endpoint %d -> %d overflows", ni, src, dst)
		case gap > 1<<32-1:
			return fmt.Errorf("node %d: gap %d overflows", ni, gap)
		case nDeps > maxNodeDeps:
			return fmt.Errorf("node %d: %d deps, limit %d", ni, nDeps, maxNodeDeps)
		}
		n.Data = flags&1 != 0
		n.SrcAbs = flags&2 != 0
		n.DstAbs = flags&4 != 0
		n.Src, n.Dst = int32(src), int32(dst)
		n.Gap = uint32(gap)
		n.NDeps = uint8(nDeps)
		for range nDeps {
			back := next()
			if bad {
				return fmt.Errorf("node %d: bad varint", ni)
			}
			if back == 0 || back > uint64(ni) {
				return fmt.Errorf("node %d: dep distance %d out of range", ni, back)
			}
			// Appending keeps Deps nil for a dependency-free app, the
			// same value a literal without Deps holds.
			a.Deps = append(a.Deps, int32(ni)-int32(back))
		}
		n.DRetired = unzigzag(next())
		n.DL1D = unzigzag(next())
		n.DL1I = unzigzag(next())
		n.DL2 = unzigzag(next())
		if bad {
			return fmt.Errorf("node %d: bad varint", ni)
		}
	}
	if off != len(buf) {
		return fmt.Errorf("%d trailing bytes after the last node", len(buf)-off)
	}
	return nil
}

// unzigzag maps a zigzag-encoded uvarint back to the int64 that
// binary.PutVarint wrote.
func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// injEntry is one released-but-not-yet-injected node.
type injEntry struct {
	cycle sim.Cycle
	node  int32
}

// injHeap is a deterministic min-heap ordered by (cycle, node index) —
// ties break on the node, so two runs always pop identically.
type injHeap []injEntry

func (h injHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].node < h[j].node
}

func (h *injHeap) push(e injEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *injHeap) pop() injEntry {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && (*h).less(l, small) {
			small = l
		}
		if r < len(*h) && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// TraceSource replays one TraceApp: nodes inject Gap cycles after their
// last dependency retires, and the machine reports retirements back
// through Retire. It implements Source and Retirer.
type TraceSource struct {
	app *TraceApp
	// originX/originY place the recorded region on the replay grid;
	// gridW converts coordinates to tile IDs.
	originX, originY, gridW int

	// dependents[depOff[i]:depOff[i+1]] are the nodes waiting on node i,
	// in ascending order (compressed sparse rows of the reversed DAG).
	depOff     []int32
	dependents []int32
	depLeft    []uint8 // unretired deps per node, at most maxNodeDeps
	injected   []bool
	retired    []bool
	ready      injHeap
	nRetired   int

	win, total *Stats

	events []Event
	evHead int
}

// NewTraceSource builds a replay source for app, placing the recorded
// region at (originX, originY) on a grid gridW tiles wide. The region
// dimensions must match the recording (the caller validates).
func NewTraceSource(app *TraceApp, originX, originY, gridW int) *TraceSource {
	nodes := len(app.Nodes)
	s := &TraceSource{
		app: app, originX: originX, originY: originY, gridW: gridW,
		depOff:     make([]int32, nodes+1),
		dependents: make([]int32, len(app.Deps)),
		depLeft:    make([]uint8, nodes),
		injected:   make([]bool, nodes),
		retired:    make([]bool, nodes),
	}
	// Pass 1 counts each node's dependents into depOff[d+1]; the prefix
	// sum turns the counts into row starts.
	deps := app.Deps
	for ni := range app.Nodes {
		n := &app.Nodes[ni]
		s.depLeft[ni] = n.NDeps
		for _, d := range deps[:n.NDeps] {
			s.depOff[d+1]++
		}
		deps = deps[n.NDeps:]
		if n.NDeps == 0 {
			s.ready.push(injEntry{cycle: sim.Cycle(n.Gap), node: int32(ni)})
		}
	}
	for i := 1; i <= nodes; i++ {
		s.depOff[i] += s.depOff[i-1]
	}
	// Pass 2 fills the rows, using depOff[d] as row d's cursor: it ends
	// at row d+1's start, so one shift restores the starts.
	deps = app.Deps
	for ni := range app.Nodes {
		nd := app.Nodes[ni].NDeps
		for _, d := range deps[:nd] {
			s.dependents[s.depOff[d]] = int32(ni)
			s.depOff[d]++
		}
		deps = deps[nd:]
	}
	copy(s.depOff[1:], s.depOff[:nodes])
	s.depOff[0] = 0
	return s
}

// tile converts one recorded endpoint to a replay tile ID.
func (s *TraceSource) tile(idx int32, abs bool) noc.NodeID {
	if abs {
		return noc.NodeID(idx)
	}
	rx, ry := int(idx)%s.app.W, int(idx)/s.app.W
	return noc.NodeID((s.originY+ry)*s.gridW + (s.originX + rx))
}

// Bind implements Source.
func (s *TraceSource) Bind(v View) { s.win, s.total = v.Stats() }

// Finite implements Source: a trace always ends.
func (s *TraceSource) Finite() bool { return true }

// Progress implements Source: retired nodes.
func (s *TraceSource) Progress() float64 { return float64(s.nRetired) }

// StallCycles implements Source: trace replay has no MLP window.
func (s *TraceSource) StallCycles() int64 { return 0 }

// Advance implements Source: inject every node whose release gap has
// elapsed, folding its recorded stat deltas into the app counters.
func (s *TraceSource) Advance(now sim.Cycle) bool {
	s.events = s.events[:0]
	s.evHead = 0
	for len(s.ready) > 0 && s.ready[0].cycle <= now {
		e := s.ready.pop()
		n := &s.app.Nodes[e.node]
		s.injected[e.node] = true
		s.win.Retired += n.DRetired
		s.total.Retired += n.DRetired
		s.win.L1DMisses += n.DL1D
		s.total.L1DMisses += n.DL1D
		s.win.L1IMisses += n.DL1I
		s.total.L1IMisses += n.DL1I
		s.win.L2Misses += n.DL2
		s.total.L2Misses += n.DL2
		src := s.tile(n.Src, n.SrcAbs)
		dst := s.tile(n.Dst, n.DstAbs)
		if src == dst {
			// A re-placed region can collapse an absolute endpoint onto a
			// moved tile; the packet has nowhere to travel, so it retires
			// on the spot and releases its dependents.
			s.Retire(uint64(e.node), now)
			continue
		}
		s.events = append(s.events, Event{
			Kind: EvPacket, Src: src, Dst: dst, Data: n.Data, Ref: uint64(e.node),
		})
	}
	return s.nRetired == len(s.app.Nodes)
}

// NextEvent implements Source.
func (s *TraceSource) NextEvent() (Event, bool) {
	if s.evHead >= len(s.events) {
		return Event{}, false
	}
	ev := s.events[s.evHead]
	s.evHead++
	return ev, true
}

// Retire implements Retirer: the machine reports a replayed packet's
// delivery (or fault drop — lost packets still release their dependents,
// so a faulty fabric degrades the replay instead of deadlocking it).
func (s *TraceSource) Retire(ref uint64, now sim.Cycle) {
	if ref >= uint64(len(s.app.Nodes)) || s.retired[ref] {
		return
	}
	s.retired[ref] = true
	s.nRetired++
	for _, d := range s.dependents[s.depOff[ref]:s.depOff[ref+1]] {
		s.depLeft[d]--
		if s.depLeft[d] == 0 {
			s.ready.push(injEntry{cycle: now + sim.Cycle(s.app.Nodes[d].Gap), node: d})
		}
	}
}

// SnapState implements Source: the injected/retired bitmaps and the
// released-pending set. Dependency counts are recomputed when decoding.
func (s *TraceSource) SnapState(c *snap.Codec) {
	bitmapState(c, s.injected)
	bitmapState(c, s.retired)
	var pend injHeap
	var n int
	if c.Decoding() {
		s.nRetired = 0
		deps := s.app.Deps
		for ni := range s.retired {
			if s.retired[ni] && !s.injected[ni] {
				c.Failf("traffic: trace node %d retired but never injected", ni)
			}
			if s.retired[ni] {
				s.nRetired++
			}
			nd := s.app.Nodes[ni].NDeps
			s.depLeft[ni] = 0
			for _, d := range deps[:nd] {
				if !s.retired[d] {
					s.depLeft[ni]++
				}
			}
			deps = deps[nd:]
		}
		// The pending set is exactly the released-but-not-injected nodes.
		for ni := range s.app.Nodes {
			if !s.injected[ni] && s.depLeft[ni] == 0 {
				n++
			}
		}
		s.ready, s.events, s.evHead = s.ready[:0], s.events[:0], 0
	} else {
		// Canonical order: the heap's array layout depends on operation
		// history, so serialize a sorted copy (which is itself a valid heap).
		pend = append(pend, s.ready...)
		sort.Slice(pend, pend.less)
		n = len(pend)
	}
	c.Len(n, "traffic: trace pending nodes")
	for i := 0; i < n; i++ {
		var e injEntry
		if !c.Decoding() {
			e = pend[i]
		}
		node := int(e.node)
		c.I64((*int64)(&e.cycle))
		c.Int(&node)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		switch {
		case node < 0 || node >= len(s.app.Nodes):
			c.Failf("traffic: trace snapshot pending node %d out of range", node)
		case s.injected[node] || s.depLeft[node] != 0:
			c.Failf("traffic: trace snapshot pending node %d not releasable", node)
		default:
			// Entries were serialized in sorted order, which satisfies the
			// heap invariant as-is.
			s.ready = append(s.ready, injEntry{cycle: e.cycle, node: int32(node)})
		}
	}
}

// bitmapState is a []bool of live-structure length, packed 64 to a word.
func bitmapState(c *snap.Codec, bits []bool) {
	c.Len(len(bits), "traffic: bitmap bits")
	for lo := 0; lo < len(bits); lo += 64 {
		chunk := bits[lo:min(lo+64, len(bits))]
		var word uint64
		for j, b := range chunk {
			if b {
				word |= 1 << j
			}
		}
		c.U64(&word)
		if c.Decoding() {
			for j := range chunk {
				chunk[j] = word&(1<<j) != 0
			}
		}
	}
}
