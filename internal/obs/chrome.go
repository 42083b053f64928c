package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"adaptnoc/internal/noc"
)

// ChromeTracer records the flit lifecycle as Chrome trace_event JSON that
// chrome://tracing and Perfetto load directly. The track layout is:
//
//   - process "routers": one thread per router; each per-hop residency
//     (arrival -> switch traversal) is a complete ("X") slice named after
//     the packet and flit, with the RC/VA grant cycles in its args.
//   - process "links": one thread per channel; each flit's wire time is a
//     slice spanning send -> delivery.
//   - process "NIs": one thread per tile; packet enqueue, injection, and
//     delivery appear as instant events.
//
// Cycles map 1:1 to trace microseconds, so slice lengths read directly as
// cycle counts in the UI.
type ChromeTracer struct {
	// Cap bounds the number of retained events; once reached, further
	// events are counted in Dropped instead of stored (the metadata track
	// names are still emitted). Zero means DefaultEventCap.
	Cap     int
	Dropped int64

	events  []chromeEvent
	pending map[flitKey]hopState

	linkIDs   map[*noc.Channel]int
	linkNames []string

	routerSeen map[noc.NodeID]bool
	niSeen     map[noc.NodeID]bool
}

// DefaultEventCap bounds a ChromeTracer to roughly a gigabyte of JSON; use
// the ring tracer for longer runs.
const DefaultEventCap = 4 << 20

// Track process IDs.
const (
	pidRouters = 1
	pidLinks   = 2
	pidNIs     = 3
)

// flitKey is the stable identity of a flit across its lifetime. *Flit
// pointers index into per-packet arena slabs that are recycled at delivery,
// so a pointer key could alias a past flit; (packet ID, sequence) cannot.
type flitKey struct {
	pkt uint64
	seq int
}

func keyOf(f *noc.Flit) flitKey { return flitKey{pkt: f.Pkt.ID, seq: f.Seq} }

type hopState struct {
	router noc.NodeID
	arrive Cycle
	rc, va Cycle
	hasRC  bool
	hasVA  bool
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func (c *ChromeTracer) ensure() {
	if c.pending == nil {
		c.pending = make(map[flitKey]hopState)
		c.linkIDs = make(map[*noc.Channel]int)
		c.routerSeen = make(map[noc.NodeID]bool)
		c.niSeen = make(map[noc.NodeID]bool)
	}
}

// Events returns the number of retained events.
func (c *ChromeTracer) Events() int { return len(c.events) }

func (c *ChromeTracer) emit(e chromeEvent) {
	limit := c.Cap
	if limit <= 0 {
		limit = DefaultEventCap
	}
	if len(c.events) >= limit {
		c.Dropped++
		return
	}
	c.events = append(c.events, e)
}

func (c *ChromeTracer) touchRouter(id noc.NodeID) {
	c.ensure()
	if !c.routerSeen[id] {
		c.routerSeen[id] = true
	}
}

func (c *ChromeTracer) touchNI(id noc.NodeID) {
	c.ensure()
	if !c.niSeen[id] {
		c.niSeen[id] = true
	}
}

func (c *ChromeTracer) linkID(ch *noc.Channel) int {
	c.ensure()
	if id, ok := c.linkIDs[ch]; ok {
		return id
	}
	id := len(c.linkNames)
	c.linkIDs[ch] = id
	c.linkNames = append(c.linkNames, fmt.Sprintf("%v->%v %v", ch.From, ch.To, ch.Kind))
	return id
}

func flitName(f *noc.Flit) string {
	return fmt.Sprintf("pkt#%d.%d", f.Pkt.ID, f.Seq)
}

// PacketEnqueued implements noc.Tracer.
func (c *ChromeTracer) PacketEnqueued(p *noc.Packet, now Cycle) {
	c.touchNI(p.Src)
	c.emit(chromeEvent{Name: fmt.Sprintf("enqueue pkt#%d", p.ID), Ph: "i", Ts: int64(now),
		Pid: pidNIs, Tid: int(p.Src), S: "t",
		Args: map[string]any{"dst": int(p.Dst), "vnet": p.VNet.String(), "size": p.Size, "app": p.App}})
}

// PacketInjected implements noc.Tracer.
func (c *ChromeTracer) PacketInjected(p *noc.Packet, router noc.NodeID, now Cycle) {
	c.touchNI(p.Src)
	c.emit(chromeEvent{Name: fmt.Sprintf("inject pkt#%d", p.ID), Ph: "i", Ts: int64(now),
		Pid: pidNIs, Tid: int(p.Src), S: "t",
		Args: map[string]any{"router": int(router), "queued": int64(p.QueuingLatency())}})
}

// FlitArrived implements noc.Tracer.
func (c *ChromeTracer) FlitArrived(router noc.NodeID, port int, f *noc.Flit, now Cycle) {
	c.ensure()
	c.pending[keyOf(f)] = hopState{router: router, arrive: now}
}

// FlitRouted implements noc.Tracer.
func (c *ChromeTracer) FlitRouted(router noc.NodeID, f *noc.Flit, outPort int, now Cycle) {
	if h, ok := c.pending[keyOf(f)]; ok {
		h.rc, h.hasRC = now, true
		c.pending[keyOf(f)] = h
	}
}

// FlitVCAllocated implements noc.Tracer.
func (c *ChromeTracer) FlitVCAllocated(router noc.NodeID, f *noc.Flit, outVC int, now Cycle) {
	if h, ok := c.pending[keyOf(f)]; ok {
		h.va, h.hasVA = now, true
		c.pending[keyOf(f)] = h
	}
}

// FlitTraversed implements noc.Tracer.
func (c *ChromeTracer) FlitTraversed(router noc.NodeID, outPort int, f *noc.Flit, now Cycle) {
	h, ok := c.pending[keyOf(f)]
	if !ok {
		return
	}
	delete(c.pending, keyOf(f))
	c.touchRouter(router)
	args := map[string]any{
		"dst": int(f.Pkt.Dst), "outPort": noc.DirPortName(outPort), "vnet": f.Pkt.VNet.String(),
	}
	if h.hasRC {
		args["rc"] = int64(h.rc)
	}
	if h.hasVA {
		args["va"] = int64(h.va)
	}
	c.emit(chromeEvent{Name: flitName(f), Ph: "X", Ts: int64(h.arrive), Dur: int64(now - h.arrive),
		Pid: pidRouters, Tid: int(router), Args: args})
}

// LinkTraversed implements noc.Tracer.
func (c *ChromeTracer) LinkTraversed(ch *noc.Channel, f *noc.Flit, sent, arrived Cycle) {
	id := c.linkID(ch)
	c.emit(chromeEvent{Name: flitName(f), Ph: "X", Ts: int64(sent), Dur: int64(arrived - sent),
		Pid: pidLinks, Tid: id})
}

// FlitEjected implements noc.Tracer.
func (c *ChromeTracer) FlitEjected(ni noc.NodeID, f *noc.Flit, now Cycle) {
	// The per-flit record of ejection is the tail of its last link slice;
	// only packet completion gets its own instant (see PacketDelivered).
	delete(c.pending, keyOf(f))
}

// PacketDelivered implements noc.Tracer.
func (c *ChromeTracer) PacketDelivered(p *noc.Packet, now Cycle) {
	c.touchNI(p.Dst)
	c.emit(chromeEvent{Name: fmt.Sprintf("deliver pkt#%d", p.ID), Ph: "i", Ts: int64(now),
		Pid: pidNIs, Tid: int(p.Dst), S: "t",
		Args: map[string]any{"src": int(p.Src), "latency": int64(p.TotalLatency()), "hops": p.Hops}})
}

// WriteTo streams the trace as a Chrome trace_event JSON object. Metadata
// (process/thread names) is emitted first so the viewer labels every track.
func (c *ChromeTracer) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countWriter{w: bw}
	enc := json.NewEncoder(cw)

	write := func(s string) error {
		_, err := io.WriteString(cw, s)
		return err
	}
	if err := write(`{"traceEvents":[`); err != nil {
		return cw.n, err
	}
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			if err := write(",\n"); err != nil {
				return err
			}
		}
		first = false
		// json.Encoder appends a newline; tolerated inside the array.
		return enc.Encode(e)
	}

	meta := func(pid int, name string) error {
		return emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	if err := meta(pidRouters, "routers"); err != nil {
		return cw.n, err
	}
	if err := meta(pidLinks, "links"); err != nil {
		return cw.n, err
	}
	if err := meta(pidNIs, "NIs"); err != nil {
		return cw.n, err
	}
	for _, id := range sortedIDs(c.routerSeen) {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pidRouters, Tid: int(id),
			Args: map[string]any{"name": fmt.Sprintf("router %d", id)}}); err != nil {
			return cw.n, err
		}
	}
	for i, name := range c.linkNames {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pidLinks, Tid: i,
			Args: map[string]any{"name": name}}); err != nil {
			return cw.n, err
		}
	}
	for _, id := range sortedIDs(c.niSeen) {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pidNIs, Tid: int(id),
			Args: map[string]any{"name": fmt.Sprintf("ni %d", id)}}); err != nil {
			return cw.n, err
		}
	}

	for i := range c.events {
		if err := emit(c.events[i]); err != nil {
			return cw.n, err
		}
	}
	if err := write("]"); err != nil {
		return cw.n, err
	}
	if c.Dropped > 0 {
		if err := write(fmt.Sprintf(`,"droppedEvents":%d`, c.Dropped)); err != nil {
			return cw.n, err
		}
	}
	if err := write("}\n"); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

func sortedIDs(m map[noc.NodeID]bool) []noc.NodeID {
	ids := make([]noc.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
