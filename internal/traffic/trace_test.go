package traffic

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// testTrace builds a small two-app trace exercising every format feature:
// dependencies, gaps, data packets, absolute endpoints, and stat deltas.
func testTrace() *Trace {
	return &Trace{
		GridW: 8, GridH: 8,
		Apps: []TraceApp{
			{
				Profile: "bfs", X: 0, Y: 0, W: 4, H: 4,
				MCs: []int32{5},
				Nodes: []TraceNode{
					{Src: 0, Dst: 5, Gap: 3, DRetired: 100, DL1D: 4},
					{Src: 5, Dst: 0, Data: true, NDeps: 1, Gap: 1, DL2: 1},
					{Src: 1, Dst: 60, DstAbs: true, NDeps: 2, Gap: 7, DL1I: 2},
				},
				// Node 1 waits on node 0; node 2 on nodes 0 and 1.
				Deps: []int32{0, 0, 1},
			},
			{
				Profile: "canneal", X: 4, Y: 0, W: 4, H: 4,
				MCs:   []int32{0, 15},
				Nodes: []TraceNode{{Src: 2, Dst: 3, Gap: 0, DRetired: 9}},
			},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	want := testTrace()
	blob, err := EncodeTrace(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte(TraceMagic)) {
		t.Fatalf("encoded trace does not start with %q", TraceMagic)
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}

	// Deterministic bytes: equal traces must serialize identically (the
	// serving cache content-addresses configs containing trace blobs).
	again, err := EncodeTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("equal traces encoded to different bytes")
	}
}

func TestEncodeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"grid too small", func(tr *Trace) { tr.GridW = 1 }, "grid"},
		{"grid too large", func(tr *Trace) { tr.GridH = maxTraceGridDim + 1 }, "grid"},
		{"no apps", func(tr *Trace) { tr.Apps = nil }, "apps"},
		{"region outside grid", func(tr *Trace) { tr.Apps[0].X = 6 }, "outside"},
		{"mc outside region", func(tr *Trace) { tr.Apps[0].MCs[0] = 16 }, "outside region"},
		{"negative endpoint", func(tr *Trace) { tr.Apps[0].Nodes[0].Src = -1 }, "out of range"},
		{"endpoint outside region", func(tr *Trace) { tr.Apps[0].Nodes[0].Dst = 16 }, "out of range"},
		{"self loop", func(tr *Trace) { tr.Apps[1].Nodes[0].Dst = 2 }, "src == dst"},
		{"forward dep", func(tr *Trace) { tr.Apps[0].Deps[0] = 2 }, "earlier node"},
		{"self dep", func(tr *Trace) { tr.Apps[0].Deps[0] = 1 }, "earlier node"},
		{"too many deps", func(tr *Trace) {
			tr.Apps[0].Nodes[2].NDeps = maxNodeDeps + 1
			tr.Apps[0].Deps = make([]int32, 1+maxNodeDeps+1)
		}, "deps, limit"},
		{"deps overrun list", func(tr *Trace) { tr.Apps[0].Nodes[2].NDeps = 3 }, "overrun"},
		{"deps left over", func(tr *Trace) { tr.Apps[0].Deps = append(tr.Apps[0].Deps, 0) }, "belong to no node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := testTrace()
			tc.mut(tr)
			_, err := EncodeTrace(tr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// wideVarintTrace hand-builds a one-node blob with the given MC tile and
// src. Values that fit a varint but not the int32 they decode into must be
// rejected: truncated, 2^32 and 2^32+1 would read as the valid MC 0 and
// src 1, a trace that re-encodes to other bytes.
func wideVarintTrace(mc, src int64) []byte {
	var meta, app, body snap.Writer
	meta.Int(8)
	meta.Int(8)
	meta.Uvarint(1)
	body.Section("meta", meta.Bytes())
	app.String("bfs")
	for _, v := range []int{0, 0, 4, 4} {
		app.Int(v)
	}
	app.Uvarint(1)
	app.Varint(mc)
	app.Uvarint(1)
	app.Uvarint(0) // flags
	app.Varint(src)
	app.Varint(5) // dst
	for range 6 { // gap, dep count, four stat deltas
		app.Uvarint(0)
	}
	body.Section("app", app.Bytes())
	return snap.SealAs(TraceMagic, TraceVersion, body.Bytes())
}

func TestDecodeTraceRejects(t *testing.T) {
	valid, err := EncodeTrace(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"short", valid[:4]},
		{"bad magic", append([]byte("NOTATRCE"), valid[8:]...)},
		{"bad version", append(append([]byte(nil), valid[:8]...), append([]byte{99, 0, 0, 0}, valid[12:]...)...)},
		{"truncated body", valid[:len(valid)-3]},
		{"garbage body", append(append([]byte(nil), valid[:12]...), 1, 2, 3, 4)},
		{"wide varints", wideVarintTrace(1<<32, 1<<32+1)},
		{"wide mc", wideVarintTrace(1<<32, 1)},
		{"wide src", wideVarintTrace(0, 1<<32+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeTrace(tc.blob); err == nil {
				t.Fatal("decode accepted a corrupt blob")
			}
		})
	}
}

// TestDecodeTraceErrorNamesAppAndNode: a fault inside an app's node
// stream is reported with the package named once, then the app, then the
// node. The blob is the truncated-mid-node fuzz seed.
func TestDecodeTraceErrorNamesAppAndNode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeTrace", "truncated-mid-node"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1]), "[]byte(")
	if !ok {
		t.Fatalf("unexpected corpus file layout:\n%s", raw)
	}
	blob, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeTrace([]byte(blob))
	if err == nil {
		t.Fatal("decode accepted a blob truncated mid-node")
	}
	msg := err.Error()
	if n := strings.Count(msg, "traffic:"); n != 1 || !strings.HasPrefix(msg, "traffic: trace app 0: node ") {
		t.Fatalf("error %q: want one \"traffic:\" followed by the app and the node", msg)
	}
}

func TestFitsGrid(t *testing.T) {
	a := &testTrace().Apps[0] // has an absolute endpoint at tile 60
	if err := a.FitsGrid(8, 8); err != nil {
		t.Fatalf("trace should fit its own grid: %v", err)
	}
	if err := a.FitsGrid(6, 6); err == nil {
		t.Fatal("absolute tile 60 cannot fit a 6x6 grid")
	}
}

// traceView is the minimal machine-side view a TraceSource needs.
type traceView struct{ win, total Stats }

func (v *traceView) Outstanding(int) int              { return 0 }
func (v *traceView) Deliverable(_, _ noc.NodeID) bool { return true }
func (v *traceView) Stats() (*Stats, *Stats)          { return &v.win, &v.total }

// drain pops all buffered events of the current cycle.
func drain(s Source) []Event {
	var evs []Event
	for {
		ev, ok := s.NextEvent()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

func TestTraceSourceReplay(t *testing.T) {
	app := &testTrace().Apps[0]
	v := &traceView{}
	s := NewTraceSource(app, 0, 0, 8)
	s.Bind(v)

	if !s.Finite() {
		t.Fatal("trace source must be finite")
	}

	// Cycle 0..2: node 0 has Gap 3, nothing injects yet.
	for now := sim.Cycle(0); now < 3; now++ {
		if done := s.Advance(now); done || len(drain(s)) != 0 {
			t.Fatalf("cycle %d: unexpected injection before the root gap", now)
		}
	}
	// Cycle 3: node 0 injects; its stat deltas fold into the counters.
	s.Advance(3)
	evs := drain(s)
	if len(evs) != 1 || evs[0].Kind != EvPacket || evs[0].Ref != 0 {
		t.Fatalf("cycle 3: got %+v, want node 0", evs)
	}
	if evs[0].Src != 0 || evs[0].Dst != noc.NodeID(1*8+1) {
		t.Fatalf("node 0 endpoints %d->%d, want 0->9 (region-relative 5 on an 8-wide grid)",
			evs[0].Src, evs[0].Dst)
	}
	if v.total.Retired != 100 || v.total.L1DMisses != 4 {
		t.Fatalf("stat deltas not folded: %+v", v.total)
	}

	// Node 1 (deps: 0, gap 1) releases when node 0 retires at cycle 10.
	s.Retire(0, 10)
	s.Advance(10)
	if evs := drain(s); len(evs) != 0 {
		t.Fatalf("node 1 injected before its gap elapsed: %+v", evs)
	}
	s.Advance(11)
	evs = drain(s)
	if len(evs) != 1 || evs[0].Ref != 1 || !evs[0].Data {
		t.Fatalf("cycle 11: got %+v, want data node 1", evs)
	}

	// Node 2 needs both 0 and 1; only fires 7 cycles after the later
	// retirement. Duplicate retirements must be idempotent.
	s.Retire(1, 20)
	s.Retire(1, 21)
	s.Advance(26)
	if evs := drain(s); len(evs) != 0 {
		t.Fatalf("node 2 injected early: %+v", evs)
	}
	done := s.Advance(27)
	evs = drain(s)
	if len(evs) != 1 || evs[0].Ref != 2 {
		t.Fatalf("cycle 27: got %+v, want node 2", evs)
	}
	if evs[0].Dst != 60 {
		t.Fatalf("absolute endpoint moved: dst %d, want 60", evs[0].Dst)
	}
	if done {
		t.Fatal("done before the last node retired")
	}
	s.Retire(2, 28)
	if !s.Advance(29) {
		t.Fatal("source not done after every node retired")
	}
	if s.Progress() != 3 {
		t.Fatalf("progress %v, want 3", s.Progress())
	}
}

// TestTraceSourceRelocated replays a recorded region at a different
// origin: relative endpoints move with the region, absolute ones stay.
func TestTraceSourceRelocated(t *testing.T) {
	app := &testTrace().Apps[0]
	s := NewTraceSource(app, 4, 4, 8)
	s.Bind(&traceView{})
	s.Advance(3)
	evs := drain(s)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	// Relative src 0 -> tile (4,4) = 36; relative dst 5 = (1,1) in-region
	// -> tile (5,5) = 45.
	if evs[0].Src != 36 || evs[0].Dst != 45 {
		t.Fatalf("relocated endpoints %d->%d, want 36->45", evs[0].Src, evs[0].Dst)
	}
}

// TestTraceSourceSnapshotRestore interrupts a replay mid-flight, restores
// it into a freshly constructed source, and checks both finish the
// remaining schedule identically.
func TestTraceSourceSnapshotRestore(t *testing.T) {
	app := &testTrace().Apps[0]
	run := func(s *TraceSource, from sim.Cycle, log *[]Event) sim.Cycle {
		now := from
		for i := 0; i < 100; i++ {
			done := s.Advance(now)
			evs := drain(s)
			*log = append(*log, evs...)
			for _, ev := range evs {
				s.Retire(ev.Ref, now+2) // fixed 2-cycle flight time
			}
			if done {
				return now
			}
			now++
		}
		t.Fatal("replay did not drain")
		return 0
	}

	// Uninterrupted reference run.
	ref := NewTraceSource(app, 0, 0, 8)
	ref.Bind(&traceView{})
	var want []Event
	run(ref, 0, &want)

	// Interrupted run: advance to cycle 4 (node 0 injected and retired,
	// node 1 pending), snapshot, restore, continue.
	s1 := NewTraceSource(app, 0, 0, 8)
	s1.Bind(&traceView{})
	var got []Event
	for now := sim.Cycle(0); now <= 4; now++ {
		s1.Advance(now)
		evs := drain(s1)
		got = append(got, evs...)
		for _, ev := range evs {
			s1.Retire(ev.Ref, now+2)
		}
	}
	var w snap.Writer
	enc := snap.Enc(&w)
	s1.SnapState(&enc)

	s2 := NewTraceSource(app, 0, 0, 8)
	s2.Bind(&traceView{})
	dec := snap.Dec(snap.NewReader(w.Bytes()))
	if s2.SnapState(&dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	run(s2, 5, &got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored replay diverged:\ngot  %+v\nwant %+v", got, want)
	}

	// A corrupt snapshot must be rejected, not trusted.
	dec = snap.Dec(snap.NewReader([]byte{7, 7, 7}))
	if s2.SnapState(&dec); dec.Err() == nil {
		t.Fatal("restore accepted garbage")
	}
}

// TestTraceSourceDropRelease proves a dropped packet still releases its
// dependents — replay degrades under faults instead of deadlocking.
func TestTraceSourceDropRelease(t *testing.T) {
	app := &TraceApp{
		Profile: "bfs", X: 0, Y: 0, W: 2, H: 2,
		Nodes: []TraceNode{
			{Src: 0, Dst: 1},
			{Src: 1, Dst: 2, NDeps: 1, Gap: 1},
		},
		Deps: []int32{0},
	}
	s := NewTraceSource(app, 0, 0, 4)
	s.Bind(&traceView{})
	s.Advance(0)
	if evs := drain(s); len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	// The machine drops node 0 at cycle 5 (fault) and reports it retired.
	s.Retire(0, 5)
	s.Advance(6)
	if evs := drain(s); len(evs) != 1 || evs[0].Ref != 1 {
		t.Fatalf("dependent not released after drop: %+v", evs)
	}
}

func FuzzDecodeTrace(f *testing.F) {
	valid, err := EncodeTrace(testTrace())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(TraceMagic))
	f.Add([]byte("ADNOCTRC\x01\x00\x00\x00"))
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte(nil), valid...), 0xff))
	big, err := EncodeTrace(&Trace{
		GridW: 64, GridH: 64,
		Apps: []TraceApp{{Profile: "x", W: 64, H: 64,
			Nodes: []TraceNode{{Src: 0, Dst: 4095}}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(big)
	f.Add(wideVarintTrace(1<<32, 1<<32+1))
	f.Fuzz(func(t *testing.T, blob []byte) {
		tr, err := DecodeTrace(blob)
		if err != nil {
			return
		}
		// Anything the decoder accepts must satisfy the validator (decode
		// ends with validate, so a pass here means the two agree) and
		// re-encode cleanly to an equal value.
		out, err := EncodeTrace(tr)
		if err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		tr2, err := DecodeTrace(out)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatal("decode/encode/decode not a fixpoint")
		}
	})
}
