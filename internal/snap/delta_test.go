package snap

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"strings"
	"testing"
)

// buildSections writes a small structured snapshot: three sections, the
// middle one with part marks around fixed-size records keyed by ID.
func buildSections(records map[uint64]byte, tail string) []DeltaSection {
	var hw Writer
	hw.U64(7)
	hw.String("header")

	var mw Writer
	ids := make([]uint64, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		mw.Mark(PartKey(1, id))
		mw.U64(id)
		for i := 0; i < 16; i++ {
			mw.buf = append(mw.buf, records[id])
		}
	}

	var tw Writer
	tw.String(tail)

	return []DeltaSection{
		{Name: "head", Body: hw.Bytes(), Parts: hw.Parts()},
		{Name: "mid", Body: mw.Bytes(), Parts: mw.Parts()},
		{Name: "tail", Body: tw.Bytes(), Parts: tw.Parts()},
	}
}

func sealSections(secs []DeltaSection) []byte { return Seal(JoinSectionsInto(nil, secs)) }

func encode(t *testing.T, base, next []DeltaSection) []byte {
	t.Helper()
	return new(DeltaEncoder).Encode(base, next,
		BodyHash(JoinSectionsInto(nil, base)), BodyHash(JoinSectionsInto(nil, next)))
}

func TestDeltaRoundTrip(t *testing.T) {
	base := buildSections(map[uint64]byte{1: 'a', 2: 'b', 3: 'c'}, "t0")
	// Mutate record 2, drop 1, add 9, change the tail.
	next := buildSections(map[uint64]byte{2: 'B', 3: 'c', 9: 'z'}, "t1")

	frame := encode(t, base, next)
	got, err := ApplyChain(sealSections(base), frame)
	if err != nil {
		t.Fatal(err)
	}
	want := sealSections(next)
	if !bytes.Equal(got, want) {
		t.Fatalf("base ⊕ delta != full blob (%d vs %d bytes)", len(got), len(want))
	}
	if !IsDelta(frame) {
		t.Fatal("IsDelta rejects a real frame")
	}
	if IsDelta(want) {
		t.Fatal("IsDelta accepts a full blob")
	}
	b, n, err := DeltaHashes(frame)
	if err != nil {
		t.Fatal(err)
	}
	if b != BodyHash(JoinSectionsInto(nil, base)) || n != BodyHash(JoinSectionsInto(nil, next)) {
		t.Fatal("DeltaHashes mismatch")
	}
}

func TestDeltaIdenticalBaseIsTiny(t *testing.T) {
	recs := map[uint64]byte{}
	for i := uint64(1); i <= 100; i++ {
		recs[i] = byte(i*37 + 11)
	}
	secs := buildSections(recs, "same")
	frame := encode(t, secs, secs)
	full := sealSections(secs)
	if len(frame) >= len(full)/2 || len(frame) > 200 {
		t.Fatalf("no-change delta is %d bytes (full %d)", len(frame), len(full))
	}
	got, err := ApplyChain(full, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("identity delta did not reproduce the blob")
	}
}

func TestDeltaSmallChangeBeatsFull(t *testing.T) {
	recs := map[uint64]byte{}
	for i := uint64(1); i <= 200; i++ {
		recs[i] = byte(i*37 + 11) // incompressible-ish per-record content
	}
	base := buildSections(recs, "x")
	recs[77] ^= 0xff
	next := buildSections(recs, "x")
	frame := encode(t, base, next)
	full := sealSections(next)
	if len(frame) >= len(full)/5 {
		t.Fatalf("one-record delta is %d bytes, full blob %d — expected ≥5x smaller", len(frame), len(full))
	}
	got, err := ApplyChain(sealSections(base), frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("delta did not reproduce the blob")
	}
}

func TestDeltaChain(t *testing.T) {
	s0 := buildSections(map[uint64]byte{1: 'a', 2: 'b'}, "0")
	s1 := buildSections(map[uint64]byte{1: 'a', 2: 'c', 5: 'e'}, "1")
	s2 := buildSections(map[uint64]byte{2: 'c', 5: 'f'}, "2")
	d1 := encode(t, s0, s1)
	d2 := encode(t, s1, s2)
	got, err := ApplyChain(sealSections(s0), d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sealSections(s2)) {
		t.Fatal("chain did not reproduce the tip blob")
	}
	// Zero frames: the base passes through untouched.
	same, err := ApplyChain(sealSections(s0))
	if err != nil || !bytes.Equal(same, sealSections(s0)) {
		t.Fatalf("empty chain: %v", err)
	}
	// Frames out of order must fail the hash check, not misapply.
	if _, err := ApplyChain(sealSections(s0), d2, d1); err == nil {
		t.Fatal("out-of-order chain accepted")
	}
}

func TestDeltaWrongBase(t *testing.T) {
	base := buildSections(map[uint64]byte{1: 'a'}, "0")
	next := buildSections(map[uint64]byte{1: 'b'}, "1")
	other := buildSections(map[uint64]byte{1: 'x'}, "9")
	frame := encode(t, base, next)
	_, err := ApplyChain(sealSections(other), frame)
	if err == nil || !strings.Contains(err.Error(), "base hash") {
		t.Fatalf("wrong base: %v", err)
	}
}

// makeFrame assembles a frame from raw parts so tests can lie in every
// field the decoder checks.
func makeFrame(baseHash, newHash [32]byte, payload []byte) []byte {
	var out bytes.Buffer
	out.WriteString(DeltaMagic)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], DeltaVersion)
	out.Write(ver[:])
	out.Write(baseHash[:])
	out.Write(newHash[:])
	zw := gzip.NewWriter(&out)
	zw.Write(payload)
	zw.Close()
	return out.Bytes()
}

func TestDeltaDecoderRejectsLies(t *testing.T) {
	base := buildSections(map[uint64]byte{1: 'a', 2: 'b'}, "t")
	blob := sealSections(base)
	body, err := OpenBody(blob)
	if err != nil {
		t.Fatal(err)
	}
	baseHash := BodyHash(body)
	good := encode(t, base, base)

	cases := map[string][]byte{
		"empty":            {},
		"short magic":      []byte("ADNOC"),
		"full-blob magic":  blob,
		"truncated header": good[:20],
		"truncated body":   good[:len(good)-3],
		"bad payload gzip": append(append([]byte{}, good[:deltaHeaderLen]...), "not gzip"...),
	}
	wrongVer := append([]byte(nil), good...)
	wrongVer[len(DeltaMagic)]++
	cases["wrong version"] = wrongVer

	lie := func(payload []byte) []byte { return makeFrame(baseHash, baseHash, payload) }
	{ // section count far beyond the payload
		var w Writer
		w.Uvarint(1 << 30)
		cases["section-count lie"] = lie(w.Bytes())
	}
	{ // section length overrunning the op stream
		var w Writer
		w.Uvarint(1)
		w.String("head")
		w.Uvarint(1 << 20)
		w.Uvarint(opLit)
		w.Bytes0([]byte("xy"))
		cases["section-length lie"] = lie(w.Bytes())
	}
	{ // COPY outside the base section
		var w Writer
		w.Uvarint(1)
		w.String("head")
		w.Uvarint(8)
		w.Uvarint(opCopy)
		w.Uvarint(1 << 40)
		w.Uvarint(8)
		cases["copy out of range"] = lie(w.Bytes())
	}
	{ // XOR overrunning the base section
		var w Writer
		w.Uvarint(1)
		w.String("tail")
		w.Uvarint(64)
		w.Uvarint(opXOR)
		w.Uvarint(0)
		w.Bytes0(make([]byte, 64))
		cases["xor out of range"] = lie(w.Bytes())
	}
	{ // unknown op
		var w Writer
		w.Uvarint(1)
		w.String("head")
		w.Uvarint(4)
		w.Uvarint(9)
		cases["unknown op"] = lie(w.Bytes())
	}
	{ // claims a section the base lacks, then copies from it
		var w Writer
		w.Uvarint(1)
		w.String("ghost")
		w.Uvarint(4)
		w.Uvarint(opCopy)
		w.Uvarint(0)
		w.Uvarint(4)
		cases["copy from missing section"] = lie(w.Bytes())
	}
	{ // correct script, lying result hash
		var w Writer
		w.Uvarint(0)
		cases["result hash lie"] = makeFrame(baseHash, [32]byte{1, 2, 3}, w.Bytes())
	}

	for name, frame := range cases {
		if _, err := ApplyChain(blob, frame); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDeltaEncoderDeterministic(t *testing.T) {
	base := buildSections(map[uint64]byte{1: 'a', 2: 'b', 3: 'c'}, "t0")
	next := buildSections(map[uint64]byte{2: 'B', 3: 'c', 9: 'z'}, "t1")
	a := encode(t, base, next)
	b := encode(t, base, next)
	if !bytes.Equal(a, b) {
		t.Fatal("DeltaEncoder is not deterministic")
	}
}

func TestSpansDegradeOnBadMarks(t *testing.T) {
	body := []byte("0123456789")
	// Out-of-range and out-of-order marks must degrade to one span, never
	// slice out of bounds.
	for _, parts := range [][]Part{
		{{Key: 1, Off: 4}, {Key: 2, Off: 2}},
		{{Key: 1, Off: 99}},
	} {
		spans := spansOf(nil, body, parts)
		if len(spans) != 1 || spans[0].off != 0 || spans[0].end != len(body) {
			t.Fatalf("parts %v: spans %v", parts, spans)
		}
	}
	if spansOf(nil, nil, nil) != nil {
		t.Fatal("empty body produced spans")
	}
}

func FuzzDecodeDelta(f *testing.F) {
	base := buildSections(map[uint64]byte{1: 'a', 2: 'b', 3: 'c'}, "seed")
	next := buildSections(map[uint64]byte{1: 'a', 2: 'B', 4: 'd'}, "seed2")
	blob := sealSections(base)
	body, _ := OpenBody(blob)
	baseHash := BodyHash(body)

	good := new(DeltaEncoder).Encode(base, next, baseHash, BodyHash(JoinSectionsInto(nil, next)))
	f.Add(good)
	f.Add(good[:deltaHeaderLen])
	f.Add(good[:len(good)/2])
	f.Add([]byte(DeltaMagic))
	f.Add([]byte{})
	wrongBase := append([]byte(nil), good...)
	wrongBase[len(DeltaMagic)+4] ^= 0xff
	f.Add(wrongBase)
	wrongVer := append([]byte(nil), good...)
	wrongVer[len(DeltaMagic)]++
	f.Add(wrongVer)
	{ // section-count lie under a valid header
		var w Writer
		w.Uvarint(1 << 30)
		f.Add(makeFrame(baseHash, baseHash, w.Bytes()))
	}
	{ // op soup
		var w Writer
		w.Uvarint(2)
		w.String("head")
		w.Uvarint(100)
		w.Uvarint(opCopy)
		w.Uvarint(0)
		w.Uvarint(200)
		f.Add(makeFrame(baseHash, baseHash, w.Bytes()))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; a successful apply must produce a well-formed
		// sealed blob whose body hash matches the frame's claim.
		out, err := ApplyChain(blob, data)
		if err != nil {
			return
		}
		outBody, err := OpenBody(out)
		if err != nil {
			t.Fatalf("applied blob does not open: %v", err)
		}
		_, want, err := DeltaHashes(data)
		if err != nil {
			t.Fatalf("applied frame has unreadable hashes: %v", err)
		}
		if BodyHash(outBody) != want {
			t.Fatal("applied blob body does not match the frame's result hash")
		}
	})
}
