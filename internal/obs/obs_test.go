package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// rig builds a 4x4 mesh with 1:1 NI attachments and XY routing.
func rig(t *testing.T) (*noc.Network, *sim.Kernel) {
	t.Helper()
	cfg := noc.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	net := noc.NewNetwork(cfg)
	topology.BuildMesh(net)
	k := sim.NewKernel()
	k.Register(net)
	return net, k
}

// load enqueues a deterministic all-to-all-ish workload at cycle 0.
func load(net *noc.Network, n int) {
	nodes := noc.NodeID(net.Cfg.NumNodes())
	for i := 0; i < n; i++ {
		src := noc.NodeID(i) % nodes
		dst := (src + noc.NodeID(1+i*7%int(nodes-1))) % nodes
		if src == dst {
			dst = (dst + 1) % nodes
		}
		class := noc.ClassCoherence
		if i%3 == 0 {
			class = noc.ClassData
		}
		net.Enqueue(net.NewPacket(src, dst, class, noc.VNet(i%noc.NumVNets), 0), 0)
	}
}

func drain(t *testing.T, net *noc.Network, k *sim.Kernel, cycles sim.Cycle) {
	t.Helper()
	k.Run(cycles)
	if !net.Quiescent() || net.PendingPackets() != 0 {
		t.Fatalf("network did not drain in %d cycles", cycles)
	}
}

func TestChromeTracerProducesValidTrace(t *testing.T) {
	net, k := rig(t)
	tr := &obs.ChromeTracer{}
	net.SetTracer(tr)
	load(net, 40)
	drain(t, net, k, 2000)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 || e.Ts < 0 {
				t.Fatalf("span %q has negative ts/dur: %+v", e.Name, e)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q in %+v", e.Ph, e)
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Fatalf("trace missing event kinds: %d spans, %d instants, %d metadata", spans, instants, meta)
	}
	if tr.Dropped != 0 {
		t.Fatalf("dropped %d events below cap", tr.Dropped)
	}
}

func TestChromeTracerHonoursCap(t *testing.T) {
	net, k := rig(t)
	tr := &obs.ChromeTracer{}
	tr.Cap = 10
	net.SetTracer(tr)
	load(net, 40)
	drain(t, net, k, 2000)
	if tr.Events() != 10 || tr.Dropped == 0 {
		t.Fatalf("cap not enforced: %d events, %d dropped", tr.Events(), tr.Dropped)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("capped trace is not valid JSON")
	}
}

func TestMetricsHistogramsAndReport(t *testing.T) {
	net, k := rig(t)
	m := obs.NewMetrics()
	net.SetTracer(m)
	load(net, 60)
	drain(t, net, k, 3000)

	if m.Packets != 60 {
		t.Fatalf("metrics saw %d packets, want 60", m.Packets)
	}
	for v := 0; v < noc.NumVNets; v++ {
		h := m.Total[v]
		if h.N() == 0 {
			t.Fatalf("vnet %d histogram empty", v)
		}
		p50, p95, p99 := h.Percentile(50), h.Percentile(95), h.Percentile(99)
		if p50 > p95 || p95 > p99 {
			t.Fatalf("vnet %d percentiles not monotone: p50=%d p95=%d p99=%d", v, p50, p95, p99)
		}
	}
	var buf bytes.Buffer
	m.Report(&buf, 3000)
	out := buf.String()
	for _, want := range []string{"p50=", "p95=", "p99=", "busiest routers", "busiest links", "flits/cycle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRingTracerWrapAndRoundTrip(t *testing.T) {
	net, k := rig(t)
	tr := obs.NewRingTracer(256)
	net.SetTracer(tr)
	load(net, 40)
	drain(t, net, k, 2000)

	if tr.Total() <= 256 {
		t.Fatalf("want enough events to wrap, got %d", tr.Total())
	}
	recs := tr.Records()
	if len(recs) != 256 {
		t.Fatalf("retained %d records, want 256", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Cycle < recs[i-1].Cycle {
			t.Fatalf("records not in chronological order at %d: %d < %d", i, recs[i].Cycle, recs[i-1].Cycle)
		}
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := obs.ReadRing(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != tr.Total() || len(d.Records) != len(recs) {
		t.Fatalf("round trip mismatch: total %d/%d, records %d/%d",
			d.Total, tr.Total(), len(d.Records), len(recs))
	}
	for i := range recs {
		if d.Records[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v != %+v", i, d.Records[i], recs[i])
		}
	}
	if len(d.LinkNames) == 0 || d.LinkNames[0] == "" {
		t.Fatalf("link name table lost: %q", d.LinkNames)
	}
}

func TestTeeFansOut(t *testing.T) {
	net, k := rig(t)
	m := obs.NewMetrics()
	ring := obs.NewRingTracer(1024)
	net.SetTracer(obs.Tee{m, ring})
	load(net, 20)
	drain(t, net, k, 2000)
	if m.Packets != 20 || ring.Total() == 0 {
		t.Fatalf("tee lost events: metrics %d packets, ring %d records", m.Packets, ring.Total())
	}
}

func TestVerifyCleanRunUnderLiveTraffic(t *testing.T) {
	net, k := rig(t)
	net.SetVerifier(1, obs.Verify)
	load(net, 60)
	drain(t, net, k, 3000)
	if err := obs.Verify(net, 3000); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCreditLeak(t *testing.T) {
	net, k := rig(t)
	load(net, 20)
	drain(t, net, k, 2000)
	if err := obs.Verify(net, 2000); err != nil {
		t.Fatalf("pre-mutation network unexpectedly broken: %v", err)
	}
	net.Router(0).DebugDropCredit(noc.PortEast, 0)
	err := obs.Verify(net, 2000)
	if err == nil {
		t.Fatal("credit leak went undetected")
	}
	if !strings.Contains(err.Error(), "credit invariant") {
		t.Fatalf("unexpected error for credit leak: %v", err)
	}
}

func TestVerifyDetectsConservationBreak(t *testing.T) {
	net, k := rig(t)
	load(net, 20)
	drain(t, net, k, 2000)
	net.TotalFlitsInjected++
	err := obs.Verify(net, 2000)
	if err == nil || !strings.Contains(err.Error(), "flit conservation") {
		t.Fatalf("conservation break not detected: %v", err)
	}
}

// TestVerifierFailsLoudly proves an installed checker panics the tick that
// observes an injected credit leak: the mutation cannot be shrugged off
// into slightly-wrong results.
func TestVerifierFailsLoudly(t *testing.T) {
	net, k := rig(t)
	net.SetVerifier(1, obs.Verify)
	load(net, 20)
	k.Run(50)
	net.Router(0).DebugDropCredit(noc.PortEast, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("verifier did not panic on credit-leak mutation")
		}
		if !strings.Contains(sprint(r), "invariant violated") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	k.Run(100)
}

func sprint(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

func TestWritePromHistogram(t *testing.T) {
	h := sim.NewHistogram(250, 4)
	for _, v := range []int64{100, 300, 900, 5000} {
		h.Add(v)
	}
	var b strings.Builder
	obs.WritePromHistogram(&b, "job_seconds", "Job wall time.", h, 1e-3)
	got := b.String()
	for _, want := range []string{
		"# TYPE job_seconds histogram",
		`job_seconds_bucket{le="0.25"} 1`,
		`job_seconds_bucket{le="0.5"} 2`,
		`job_seconds_bucket{le="1"} 3`, // cumulative: counts accumulate
		`job_seconds_bucket{le="+Inf"} 4`,
		"job_seconds_sum 6.3",
		"job_seconds_count 4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}
