package sim

import (
	"testing"

	"adaptnoc/internal/snap"
)

// xoshiroGolden pins the exact output streams of the generator. These
// vectors were produced by this implementation and cross-checked against
// the xoshiro256** reference (seed 0 via splitmix64); if a Go upgrade or a
// refactor changes any of them, every "deterministic from a single seed"
// guarantee in the repo is silently void, so this test must never be
// "fixed" by regenerating the constants.
func TestRNGGoldenVectors(t *testing.T) {
	cases := []struct {
		seed uint64
		want [5]uint64
	}{
		{0, [5]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c, 0xbba5ad4a1f842e59}},
		{1, [5]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7, 0xb27a48e29a233673}},
		{2021, [5]uint64{0xf61612c2ff4d9bc1, 0x584f61ab0b9a78b4, 0x8153a8240f70a3e2, 0xf7825de81809f5f1, 0xbfa6b6578e1a9e26}},
		{0xdeadbeef, [5]uint64{0xc5555444a74d7e83, 0x65c30d37b4b16e38, 0x54f773200a4efa23, 0x429aed75fb958af7, 0xfb0e1dd69c255b2e}},
	}
	for _, c := range cases {
		r := NewRNG(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("seed %#x draw %d: got %#x want %#x", c.seed, i, got, want)
			}
		}
	}

	// Split is part of the pinned algorithm: it advances the parent by one
	// draw and derives the child from that draw and the label.
	r := NewRNG(2021)
	child := r.Split(7)
	if got := child.Uint64(); got != 0xb9ff5a931d17e3af {
		t.Fatalf("Split(7) first draw: got %#x", got)
	}
	if got := child.Uint64(); got != 0xc0994480b1b58e34 {
		t.Fatalf("Split(7) second draw: got %#x", got)
	}
	if got := r.Uint64(); got != 0x584f61ab0b9a78b4 {
		t.Fatalf("parent stream after Split: got %#x", got)
	}

	// Derived distributions ride on the same stream.
	f := NewRNG(42)
	if got := f.Float64(); got != 0.083862971059882163 {
		t.Fatalf("Float64: got %.17g", got)
	}
	n := NewRNG(42)
	if got := n.NormFloat64(); got != -1.6132237513849161 {
		t.Fatalf("NormFloat64: got %.17g", got)
	}
}

// roundTrip encodes one SnapState description and decodes the bytes through
// another, returning the first failure of either direction.
func roundTrip(enc, dec func(*snap.Codec)) error {
	var w snap.Writer
	e := snap.Enc(&w)
	if enc(&e); e.Err() != nil {
		return e.Err()
	}
	d := snap.Dec(snap.NewReader(w.Bytes()))
	dec(&d)
	return d.Err()
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	state := r.State()

	// A fresh generator given the captured state must continue the exact
	// stream, draw for draw.
	cp := &RNG{s: state}
	ref := NewRNG(99)
	for i := 0; i < 1000; i++ {
		ref.Uint64()
	}
	for i := 0; i < 256; i++ {
		if a, b := ref.Uint64(), cp.Uint64(); a != b {
			t.Fatalf("draw %d diverged after restoring the state: %#x vs %#x", i, a, b)
		}
	}

	// And via the binary snapshot path.
	r2 := NewRNG(7)
	r2.Uint64()
	var r3 RNG
	if err := roundTrip(r2.SnapState, r3.SnapState); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if a, b := r2.Uint64(), r3.Uint64(); a != b {
			t.Fatalf("snapshot round-trip diverged at draw %d", i)
		}
	}
}

func TestRNGSplitAfterRestore(t *testing.T) {
	// Splitting after a restore must yield the same child stream as
	// splitting at the same point of the original run: Split consumes
	// parent state, so this is the sharpest test that the four state
	// words capture everything.
	orig := NewRNG(5)
	for i := 0; i < 37; i++ {
		orig.Uint64()
	}
	restored := &RNG{s: orig.State()}

	a := orig.Split(1234)
	b := restored.Split(1234)
	for i := 0; i < 128; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("child streams diverged at draw %d", i)
		}
	}
	// The parents stay in lockstep too.
	for i := 0; i < 128; i++ {
		if x, y := orig.Uint64(), restored.Uint64(); x != y {
			t.Fatalf("parent streams diverged at draw %d", i)
		}
	}
}

func TestAccumulatorHistogramRoundTrip(t *testing.T) {
	var a Accumulator
	r := NewRNG(3)
	for i := 0; i < 500; i++ {
		a.Add(r.NormFloat64() * 10)
	}
	var b Accumulator
	if err := roundTrip(a.SnapState, b.SnapState); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("accumulator round trip: %+v vs %+v", a, b)
	}
	// Continued use stays bit-identical.
	a.Add(1.5)
	b.Add(1.5)
	if a != b {
		t.Fatalf("accumulator diverged after restore: %+v vs %+v", a, b)
	}

	h := NewHistogram(10, 20)
	for i := int64(0); i < 300; i++ {
		h.Add(i)
	}
	h2 := NewHistogram(1, 1) // shape is overwritten by the decode
	if err := roundTrip(h.SnapState, h2.SnapState); err != nil {
		t.Fatal(err)
	}
	if h.Summary() != h2.Summary() || h.over != h2.over {
		t.Fatalf("histogram round trip:\n%s\n%s", h.Summary(), h2.Summary())
	}
	h.Add(42)
	h2.Add(42)
	if h.Summary() != h2.Summary() {
		t.Fatal("histogram diverged after restore")
	}
}

func TestKernelOpEventsRoundTrip(t *testing.T) {
	const opPing OpID = 7

	build := func() (*Kernel, *[]int64) {
		k := NewKernel()
		log := &[]int64{}
		k.RegisterOp(opPing, func(now Cycle, args [3]int64) {
			*log = append(*log, int64(now), args[0], args[1], args[2])
			if args[0] < 3 {
				k.AfterOp(2, opPing, args[0]+1, args[1], args[2])
			}
		})
		return k, log
	}

	// Reference run: no checkpoint.
	ref, refLog := build()
	ref.ScheduleOp(5, opPing, 0, 10, 20)
	ref.ScheduleOp(8, opPing, 100, 0, 0)
	ref.Run(30)

	// Checkpointed run: snapshot at cycle 6 (self-rescheduling chain in
	// flight), restore into a fresh kernel, run to the same horizon.
	k, _ := build()
	k.ScheduleOp(5, opPing, 0, 10, 20)
	k.ScheduleOp(8, opPing, 100, 0, 0)
	k.Run(6)
	k2, log2 := build()
	if err := roundTrip(k.SnapState, k2.SnapState); err != nil {
		t.Fatal(err)
	}
	if k2.Now() != 6 {
		t.Fatalf("restored clock %d, want 6", k2.Now())
	}
	// Replay the pre-checkpoint prefix into the restored log so the full
	// histories compare; the restored kernel only executes the suffix.
	k3, log3 := build()
	k3.ScheduleOp(5, opPing, 0, 10, 20)
	k3.ScheduleOp(8, opPing, 100, 0, 0)
	k3.Run(6)
	*log2 = append(*log2, *log3...)
	k2.Run(30)

	if len(*refLog) != len(*log2) {
		t.Fatalf("event log lengths differ: %d vs %d", len(*refLog), len(*log2))
	}
	for i := range *refLog {
		if (*refLog)[i] != (*log2)[i] {
			t.Fatalf("event log diverged at %d: %v vs %v", i, *refLog, *log2)
		}
	}

	// Seq continuity: events scheduled after restore must order after
	// pre-checkpoint events at the same cycle, exactly as in the reference.
	if len(ref.events) != len(k2.events) {
		t.Fatalf("pending events differ: %d vs %d", len(ref.events), len(k2.events))
	}
}

func TestKernelSnapshotRejectsClosures(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func(Cycle) {})
	if err := roundTrip(k.SnapState, NewKernel().SnapState); err == nil {
		t.Fatal("closure event serialized without error")
	}
}

func TestKernelRestoreRejectsCorruptEvents(t *testing.T) {
	// An event behind the restored clock must be rejected.
	var w snap.Writer
	w.I64(100) // now
	w.I64(5)   // seq
	w.Uvarint(1)
	w.I64(50) // at < now
	w.I64(1)
	w.U32(7)
	w.I64(0)
	w.I64(0)
	w.I64(0)
	d := snap.Dec(snap.NewReader(w.Bytes()))
	NewKernel().SnapState(&d)
	if d.Err() == nil {
		t.Fatal("event behind clock accepted")
	}
}
