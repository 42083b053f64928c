package system

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/traffic"
)

// dropTraceSHA256 pins the recording TestDropAtInjectionRetiresCleanly
// captures. It was computed before retired transactions were recycled, so
// a send site that reads its transaction after a synchronous drop
// recycled it shows up here as a moved trace.
const dropTraceSHA256 = "027e9bcb37435f91683708143fceda2e18910f908ca342174868682328e7b77e"

// TestDropAtInjectionRetiresCleanly cuts a link inside a 4x4 mesh under a
// recorded, finite workload. Once the fault guard is armed, XY routes over
// the cut link are dropped inside Network.Enqueue, which retires (and
// recycles) the transaction before the send site returns. The run must
// drain with no outstanding request, no live transaction, and a recording
// byte-identical to the pinned one.
func TestDropAtInjectionRetiresCleanly(t *testing.T) {
	prof, _ := traffic.ByName("canneal")
	m, app, k := buildMachine(t, prof, 3000, DefaultParams())
	net := m.net
	rec := traffic.NewRecorder(net.Cfg.Width, net.Cfg.Height)
	rec.AddApp(0, prof.Name, 0, 0, 4, 4, app.MCTiles)
	m.SetRecorder(rec)

	// The east link out of router (1,1) carries XY traffic from the
	// region's left columns to its right ones.
	eng, err := fault.New(net, k, nil, []fault.Event{
		{Cycle: 1000, Kind: fault.KindLink, Router: 9, Port: noc.PortEast},
	}, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The engine's own sweep drops queued packets while every NI is still
	// gated for the drain; a drop at an open NI happened inside Enqueue.
	injectDrops := 0
	net.SetDropFunc(func(p *noc.Packet, now sim.Cycle) {
		if eng.Strikes > 0 && !net.NI(p.Src).Gated() && p.Payload.Kind == payloadTxn {
			injectDrops++
		}
		m.Drop(p, now)
	})

	const limit = 400_000
	for k.Now() < limit && !(m.AllFinished() && net.Quiescent()) {
		k.RunFor(1000)
	}
	if !m.AllFinished() || !net.Quiescent() {
		t.Fatalf("workload did not drain by cycle %d", k.Now())
	}
	if injectDrops == 0 {
		t.Fatal("no transaction packet was dropped at injection")
	}
	for ci := range app.cores {
		if n := app.Outstanding(ci); n != 0 {
			t.Errorf("core %d still has %d outstanding requests", ci, n)
		}
	}
	if len(m.txns) != 0 {
		t.Errorf("%d transactions still live after drain", len(m.txns))
	}
	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := traffic.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != dropTraceSHA256 {
		t.Errorf("recording moved under drops at injection (%d drops): sha256 %s, want %s",
			injectDrops, got, dropTraceSHA256)
	}
}

// TestRetireTwicePanics guards the freelist: a second retire of the same
// transaction would push it twice and hand one object to two owners.
func TestRetireTwicePanics(t *testing.T) {
	prof, _ := traffic.ByName("ferret")
	m, app, _ := buildMachine(t, prof, 0, DefaultParams())
	tx := m.newTxn(app, app.cores[0], app.cores[1].tile, app.MCTiles[0], false)
	m.retireTxn(tx)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second retire of one transaction did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "not outstanding") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	m.retireTxn(tx)
}

// decodePayload runs one payload record through the machine's codec.
func decodePayload(m *Machine, record []byte) (noc.Payload, error) {
	c := snap.Dec(snap.NewReader(record))
	var p noc.Payload
	m.PayloadState(&c, &p)
	return p, c.Err()
}

// TestPayloadStateRejectsHostileKinds feeds the payload decoder records a
// corrupted checkpoint could hold. A kind outside nil…trace must fail
// however it is written — 256 must not wrap through uint8 into the nil
// kind — and a transaction kind must name a live transaction. Every valid
// kind round-trips.
func TestPayloadStateRejectsHostileKinds(t *testing.T) {
	prof, _ := traffic.ByName("ferret")
	m, app, _ := buildMachine(t, prof, 0, DefaultParams())
	live := m.newTxn(app, app.cores[0], app.cores[1].tile, app.MCTiles[0], false)

	for _, kind := range []int{4, 255, 256, 1 << 20, -1} {
		var w snap.Writer
		w.Int(kind)
		w.U64(live.id)
		p, err := decodePayload(m, w.Bytes())
		if want := fmt.Sprintf("unknown payload kind %d", kind); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("kind %d: error %v, want %q", kind, err, want)
		}
		if p != (noc.Payload{}) {
			t.Errorf("kind %d: rejected record still decoded into %+v", kind, p)
		}
	}

	var w snap.Writer
	w.Int(int(payloadTxn))
	w.U64(live.id + 1)
	if _, err := decodePayload(m, w.Bytes()); err == nil || !strings.Contains(err.Error(), "packet references unknown transaction") {
		t.Errorf("unknown transaction ID: error %v", err)
	}

	for _, want := range []noc.Payload{
		{},
		{Kind: payloadCoh},
		{Kind: payloadTxn, Ref: live.id},
		{Kind: payloadTrace, Ref: 1<<40 + 3},
	} {
		var w snap.Writer
		c := snap.Enc(&w)
		p := want
		if m.PayloadState(&c, &p); c.Err() != nil {
			t.Fatalf("encoding %+v: %v", want, c.Err())
		}
		if got, err := decodePayload(m, w.Bytes()); err != nil || got != want {
			t.Errorf("round trip of %+v: got %+v, %v", want, got, err)
		}
	}

	var enc snap.Writer
	c := snap.Enc(&enc)
	m.PayloadState(&c, &noc.Payload{Kind: payloadTrace + 1})
	if c.Err() == nil {
		t.Error("encoding an out-of-range payload kind succeeded")
	}
}

// machineState is every layer of a buildMachine simulation in checkpoint
// order: machine, sources, network (payloads through the machine) and
// kernel.
func machineState(m *Machine, k *sim.Kernel, c *snap.Codec) {
	m.SnapState(c)
	m.SnapSources(c)
	m.net.SnapState(c, m)
	k.SnapState(c)
}

func encodeMachine(t *testing.T, m *Machine, k *sim.Kernel) []byte {
	t.Helper()
	var w snap.Writer
	c := snap.Enc(&w)
	if machineState(m, k, &c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	return append([]byte(nil), w.Bytes()...)
}

// TestCheckpointWithFreelistRoundTrips snapshots a machine whose freelist
// holds retired transactions and restores it into a fresh one, whose
// freelist starts empty. Both encode identically, then and after running
// on — the one recycling, the other allocating — because which memory a
// transaction occupies is never part of the simulated state.
func TestCheckpointWithFreelistRoundTrips(t *testing.T) {
	prof, _ := traffic.ByName("canneal")
	m, _, k := buildMachine(t, prof, 0, DefaultParams())
	k.Run(20000)
	if len(m.free) == 0 || len(m.txns) == 0 {
		t.Fatalf("want recycled and live transactions, have %d free, %d live", len(m.free), len(m.txns))
	}
	blob := encodeMachine(t, m, k)

	r, _, rk := buildMachine(t, prof, 0, DefaultParams())
	c := snap.Dec(snap.NewReader(blob))
	if machineState(r, rk, &c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if len(r.free) != 0 {
		t.Fatalf("restored freelist holds %d transactions, want it rebuilt empty", len(r.free))
	}
	if again := encodeMachine(t, r, rk); !bytes.Equal(again, blob) {
		t.Fatalf("restore re-encodes differently (%d vs %d bytes)", len(again), len(blob))
	}
	k.RunFor(5000)
	rk.RunFor(5000)
	if a, b := encodeMachine(t, m, k), encodeMachine(t, r, rk); !bytes.Equal(a, b) {
		t.Fatalf("recycling and fresh machines diverged after 5000 cycles (%d vs %d bytes)", len(a), len(b))
	}
}
