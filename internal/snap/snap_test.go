package snap

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0xdeadbeefcafef00d)
	w.I64(-42)
	w.U32(7)
	w.Uvarint(300)
	w.Varint(-300)
	w.Int(123456)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Copysign(0, -1))
	w.Bytes0([]byte("hello"))
	w.String("world")
	w.F64s([]float64{1.5, -2.5})
	w.I64s([]int64{-1, 0, 1})

	r, err := Open(Seal(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: got %v want %v", name, got, want)
		}
	}
	u, err := r.U64()
	check("u64", u, uint64(0xdeadbeefcafef00d), err)
	i, err := r.I64()
	check("i64", i, int64(-42), err)
	u32, err := r.U32()
	check("u32", u32, uint32(7), err)
	uv, err := r.Uvarint()
	check("uvarint", uv, uint64(300), err)
	sv, err := r.Varint()
	check("varint", sv, int64(-300), err)
	n, err := r.Int()
	check("int", n, 123456, err)
	b1, err := r.Bool()
	check("bool t", b1, true, err)
	b2, err := r.Bool()
	check("bool f", b2, false, err)
	f, err := r.F64()
	check("f64", f, math.Pi, err)
	nz, err := r.F64()
	if err != nil || math.Signbit(nz) != true || nz != 0 {
		t.Fatalf("negative zero not preserved: %v %v", nz, err)
	}
	bs, err := r.Bytes0()
	check("bytes", string(bs), "hello", err)
	s, err := r.String()
	check("string", s, "world", err)
	fs, err := r.F64s()
	if err != nil || len(fs) != 2 || fs[0] != 1.5 || fs[1] != -2.5 {
		t.Fatalf("f64s: %v %v", fs, err)
	}
	is, err := r.I64s()
	if err != nil || len(is) != 3 || is[0] != -1 || is[2] != 1 {
		t.Fatalf("i64s: %v %v", is, err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestSections(t *testing.T) {
	var body Writer
	body.I64(99)
	var w Writer
	w.Section("alpha", body.Bytes())
	w.Section("beta", nil)

	r := NewReader(w.Bytes())
	sr, err := r.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sr.I64(); err != nil || v != 99 {
		t.Fatalf("section body: %v %v", v, err)
	}
	if err := sr.Done(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Section("gamma"); err == nil {
		t.Fatal("wrong section name accepted")
	}
}

func TestTruncationAndBombs(t *testing.T) {
	// Every primitive read from an empty or short buffer must error.
	r := NewReader(nil)
	if _, err := r.U64(); err == nil {
		t.Fatal("u64 from empty input")
	}
	if _, err := NewReader([]byte{1}).U32(); err == nil {
		t.Fatal("u32 from 1 byte")
	}
	if _, err := NewReader([]byte{2}).Bool(); err == nil {
		t.Fatal("bool byte 2 accepted")
	}

	// A huge declared length must be rejected before allocation.
	var w Writer
	w.Uvarint(1 << 40)
	if _, err := NewReader(w.Bytes()).Bytes0(); err == nil {
		t.Fatal("oversized byte string accepted")
	}
	if _, err := NewReader(w.Bytes()).F64s(); err == nil {
		t.Fatal("oversized f64 slice accepted")
	}
	if _, err := NewReader(w.Bytes()).Count(1); err == nil {
		t.Fatal("oversized count accepted")
	}

	// Wrong-version and bad-magic headers error with position context.
	blob := Seal(nil)
	blob[len(Magic)] = 0xff // mangle version
	_, err := Open(blob)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
	// The retired uncompressed v1 framing is a wrong version like any other.
	blob[len(Magic)] = 1
	_, err = Open(blob)
	if want := fmt.Sprintf("format version 1, want %d", Version); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v1 header: %v", err)
	}
	blob[0] = 'X'
	if _, err := Open(blob); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Open([]byte("ADN")); err == nil {
		t.Fatal("truncated magic accepted")
	}

	// A current-version frame whose body is not valid gzip is corrupt.
	bad := Seal(nil)[:len(Magic)+4]
	bad = append(bad, "not gzip at all"...)
	if _, err := Open(bad); err == nil {
		t.Fatal("non-gzip body accepted")
	}
}

// TestSealDeterministic pins the content-addressing contract: sealing the
// same body twice yields identical bytes.
func TestSealDeterministic(t *testing.T) {
	body := []byte("the same body, sealed twice")
	a, b := Seal(body), Seal(body)
	if string(a) != string(b) {
		t.Fatal("Seal is not deterministic")
	}
}

// TestSealOpenRoundTrip checks compression is actually happening and
// transparent: a repetitive body shrinks on the wire and round-trips.
func TestSealOpenRoundTrip(t *testing.T) {
	body := make([]byte, 1<<16)
	for i := range body {
		body[i] = byte(i % 7)
	}
	blob := Seal(body)
	if len(blob) >= len(body) {
		t.Fatalf("repetitive body did not compress: %d >= %d", len(blob), len(body))
	}
	got, err := OpenBody(blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) {
		t.Fatal("body did not round-trip")
	}
}

func TestDoneCatchesTrailing(t *testing.T) {
	var w Writer
	w.Bool(true)
	r := NewReader(w.Bytes())
	if err := r.Done(); err == nil {
		t.Fatal("trailing byte not caught")
	}
}
