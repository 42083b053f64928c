package obs

import (
	"fmt"
	"io"
	"sort"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

// Metrics is a Tracer that aggregates instead of recording: per-vnet
// latency histograms (total, network, and queuing components) and
// per-router / per-link flit-traversal counters. Install it alone or in a
// Tee next to a trace recorder.
type Metrics struct {
	noc.NopTracer

	// Latency histograms indexed by virtual network.
	Total [noc.NumVNets]*sim.Histogram
	Net   [noc.NumVNets]*sim.Histogram
	Queue [noc.NumVNets]*sim.Histogram

	Packets int64

	routerTrav []int64
	linkFlits  map[*noc.Channel]linkCount
}

type linkCount struct {
	name  string
	flits int64
}

// NewMetrics sizes the histograms for cycle-granularity latencies up to
// 4096 cycles (the overflow bucket reports the observed maximum beyond
// that, so saturated tails still surface).
func NewMetrics() *Metrics {
	m := &Metrics{linkFlits: make(map[*noc.Channel]linkCount)}
	for v := 0; v < noc.NumVNets; v++ {
		m.Total[v] = sim.NewHistogram(4, 1024)
		m.Net[v] = sim.NewHistogram(4, 1024)
		m.Queue[v] = sim.NewHistogram(4, 1024)
	}
	return m
}

// FlitTraversed implements noc.Tracer.
func (m *Metrics) FlitTraversed(router noc.NodeID, outPort int, f *noc.Flit, now Cycle) {
	for int(router) >= len(m.routerTrav) {
		m.routerTrav = append(m.routerTrav, 0)
	}
	m.routerTrav[router]++
}

// LinkTraversed implements noc.Tracer.
func (m *Metrics) LinkTraversed(ch *noc.Channel, f *noc.Flit, sent, arrived Cycle) {
	lc, ok := m.linkFlits[ch]
	if !ok {
		lc.name = fmt.Sprintf("%v->%v %v", ch.From, ch.To, ch.Kind)
	}
	lc.flits++
	m.linkFlits[ch] = lc
}

// PacketDelivered implements noc.Tracer.
func (m *Metrics) PacketDelivered(p *noc.Packet, now Cycle) {
	m.Packets++
	v := p.VNet
	m.Total[v].Add(int64(p.TotalLatency()))
	m.Net[v].Add(int64(p.NetworkLatency()))
	m.Queue[v].Add(int64(p.QueuingLatency()))
}

// Report prints the per-vnet latency distributions and the busiest
// routers/links; cycles scales utilization to flits/cycle (pass 0 to omit
// the rates). Output order is deterministic.
func (m *Metrics) Report(w io.Writer, cycles int64) {
	fmt.Fprintf(w, "# packet latency (cycles), %d packets\n", m.Packets)
	for v := 0; v < noc.NumVNets; v++ {
		if m.Total[v].N() == 0 {
			continue
		}
		fmt.Fprintf(w, "vnet %-8s total    %s\n", noc.VNet(v), m.Total[v].Summary())
		fmt.Fprintf(w, "vnet %-8s network  %s\n", noc.VNet(v), m.Net[v].Summary())
		fmt.Fprintf(w, "vnet %-8s queuing  %s\n", noc.VNet(v), m.Queue[v].Summary())
	}

	type entry struct {
		name  string
		flits int64
	}
	rate := func(flits int64) string {
		if cycles <= 0 {
			return ""
		}
		return fmt.Sprintf(" (%.3f flits/cycle)", float64(flits)/float64(cycles))
	}

	var routers []entry
	for id, n := range m.routerTrav {
		if n > 0 {
			routers = append(routers, entry{fmt.Sprintf("router %d", id), n})
		}
	}
	sort.Slice(routers, func(i, j int) bool {
		if routers[i].flits != routers[j].flits {
			return routers[i].flits > routers[j].flits
		}
		return routers[i].name < routers[j].name
	})
	fmt.Fprintf(w, "# busiest routers (switch traversals)\n")
	for i, e := range routers {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "%-12s %d%s\n", e.name, e.flits, rate(e.flits))
	}

	// Aggregate by name: reconfiguration can tear a channel down and wire
	// an identical one; they are the same physical link for reporting.
	byName := make(map[string]int64)
	for _, lc := range m.linkFlits {
		byName[lc.name] += lc.flits
	}
	links := make([]entry, 0, len(byName))
	for name, n := range byName {
		links = append(links, entry{name, n})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].flits != links[j].flits {
			return links[i].flits > links[j].flits
		}
		return links[i].name < links[j].name
	})
	fmt.Fprintf(w, "# busiest links (flits carried)\n")
	for i, e := range links {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "%-28s %d%s\n", e.name, e.flits, rate(e.flits))
	}
}
