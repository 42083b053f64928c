package snap

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// mixed is a record touching every Codec primitive; describe is its one
// description, shared by the round-trip, failure and fuzz tests.
type mixed struct {
	I64   int64
	U64   uint64
	U32   uint32
	Int   int
	Bool  bool
	F64   float64
	Str   string
	F64s  []float64
	I64s  []int64
	Map   map[int]int64
	Items []int64 // Count-sized
	Fixed [3]int  // Len-sized
}

func (m *mixed) describe(c *Codec) {
	c.Mark(PartKey(1, 7))
	c.I64(&m.I64)
	c.U64(&m.U64)
	c.U32(&m.U32)
	c.Int(&m.Int)
	c.Bool(&m.Bool)
	c.F64(&m.F64)
	c.String(&m.Str)
	c.F64s(&m.F64s)
	c.I64s(&m.I64s)
	IntMap(c, &m.Map)
	n := c.Count(len(m.Items), 8)
	if c.Decoding() {
		m.Items = make([]int64, n)
	}
	for i := range m.Items {
		c.I64(&m.Items[i])
	}
	c.Len(len(m.Fixed), "mixed %d fixed", 9)
	for i := range m.Fixed {
		c.Int(&m.Fixed[i])
	}
	if c.Decoding() && m.Int < 0 {
		c.Failf("mixed: negative int %d", m.Int)
	}
}

func sampleMixed() mixed {
	return mixed{
		I64: -5, U64: math.MaxUint64, U32: 0xdeadbeef, Int: 1 << 40, Bool: true,
		F64: math.Copysign(0, -1), Str: "subNoC", F64s: []float64{1.5, math.Inf(1)},
		I64s: []int64{}, Map: map[int]int64{7: -1, -3: 9}, Items: []int64{3, 2, 1}, Fixed: [3]int{-1, 0, 1},
	}
}

func encodeMixed(t testing.TB, m mixed) *Writer {
	t.Helper()
	var w Writer
	c := Enc(&w)
	if c.Decoding() {
		t.Fatal("Enc codec reports the wrong direction")
	}
	if m.describe(&c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	return &w
}

func TestCodecRoundTrip(t *testing.T) {
	want := sampleMixed()
	w := encodeMixed(t, want)
	if len(w.Parts()) != 1 || w.Parts()[0] != (Part{Key: PartKey(1, 7), Off: 0}) {
		t.Fatalf("Mark did not reach the writer: %+v", w.Parts())
	}

	// The bytes are exactly what the Writer primitives produce.
	var ref Writer
	ref.I64(want.I64)
	ref.U64(want.U64)
	ref.U32(want.U32)
	ref.Int(want.Int)
	ref.Bool(want.Bool)
	ref.F64(want.F64)
	ref.String(want.Str)
	ref.F64s(want.F64s)
	ref.I64s(want.I64s)
	ref.Uvarint(2) // the map, in key order
	ref.Int(-3)
	ref.I64(9)
	ref.Int(7)
	ref.I64(-1)
	ref.Uvarint(3)
	for _, v := range want.Items {
		ref.I64(v)
	}
	ref.Uvarint(3)
	for _, v := range want.Fixed {
		ref.Int(v)
	}
	if string(w.Bytes()) != string(ref.Bytes()) {
		t.Fatal("codec encoding differs from the Writer primitives")
	}

	var got mixed
	r := NewReader(w.Bytes())
	c := Dec(r)
	if !c.Decoding() {
		t.Fatal("Dec codec reports the wrong direction")
	}
	if got.describe(&c); c.Err() != nil {
		t.Fatal(c.Err())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !math.Signbit(got.F64) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// After the first failure every later read leaves its target zero, Count
// returns 0, and Err keeps reporting that first failure.
func TestCodecFailureSticks(t *testing.T) {
	full := encodeMixed(t, sampleMixed()).Bytes()
	for cut := 0; cut < len(full); cut++ {
		got := sampleMixed() // stale values a failed decode must not leave behind
		c := Dec(NewReader(full[:cut]))
		got.describe(&c)
		first := c.Err()
		var corrupt *ErrCorrupt
		if !errors.As(first, &corrupt) {
			t.Fatalf("cut %d: error %v is not the truncation", cut, first)
		}
		c.Failf("later failure")
		if c.Err() != first {
			t.Fatalf("cut %d: a later Failf replaced the first error", cut)
		}
		if c.Count(5, 1) != 0 {
			t.Fatalf("cut %d: Count after a failure is not 0", cut)
		}
		x := int64(42)
		if c.I64(&x); x != 0 {
			t.Fatalf("cut %d: read after a failure left %d", cut, x)
		}
		// The last field lies past every cut: it is zero, not the stale
		// sample value.
		if got.Fixed[2] != 0 {
			t.Fatalf("cut %d: trailing field not zeroed: %+v", cut, got.Fixed)
		}
	}

	// Failf works in the encoding direction too, and also sticks.
	var w Writer
	e := Enc(&w)
	e.Failf("cannot encode %d", 1)
	e.Failf("second")
	if e.Err() == nil || e.Err().Error() != "cannot encode 1" {
		t.Fatalf("encode-side Failf: %v", e.Err())
	}
}

func TestCodecLenMismatch(t *testing.T) {
	var w Writer
	w.Uvarint(10)
	c := Dec(NewReader(w.Bytes()))
	c.Len(9, "noc: router %d ports", 3)
	if c.Err() == nil {
		t.Fatal("Len accepted a mismatched count")
	}
	for _, want := range []string{"noc: router 3 ports", "9", "10"} {
		if !strings.Contains(c.Err().Error(), want) {
			t.Fatalf("Len error %q lacks %q", c.Err(), want)
		}
	}

	// A count larger than the remaining input is Count's to refuse; Len
	// only compares, so an echoed capacity with nothing behind it passes.
	c = Dec(NewReader(w.Bytes()))
	if c.Len(10, "capacity"); c.Err() != nil {
		t.Fatal(c.Err())
	}
	c = Dec(NewReader(w.Bytes()))
	if n := c.Count(0, 1); n != 0 || c.Err() == nil {
		t.Fatalf("Count accepted 10 elements with no bytes behind them (n=%d)", n)
	}
}

func FuzzCodecDecode(f *testing.F) {
	good := encodeMixed(f, sampleMixed()).Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	{ // a count claiming far more than the input holds
		var w Writer
		w.I64(1)
		w.U64(2)
		w.U32(3)
		w.Int(4)
		w.Bool(false)
		w.F64(5)
		w.String("")
		w.F64s(nil)
		w.I64s(nil)
		w.Uvarint(1 << 40)
		f.Add(w.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var m mixed
		c := Dec(NewReader(data))
		m.describe(&c) // must not panic
		// Nothing is sized beyond what the input could hold.
		if 8*(len(m.F64s)+len(m.I64s)+len(m.Map)+len(m.Items))+len(m.Str) > len(data) {
			t.Fatalf("decoded %d+%d+%d+%d elements and a %d-byte string from %d bytes",
				len(m.F64s), len(m.I64s), len(m.Map), len(m.Items), len(m.Str), len(data))
		}
		if c.Err() != nil {
			return
		}
		// What decodes cleanly survives another trip.
		var w Writer
		e := Enc(&w)
		m.describe(&e)
		var back mixed
		d := Dec(NewReader(w.Bytes()))
		if back.describe(&d); d.Err() != nil {
			t.Fatalf("re-encoded record does not decode: %v", d.Err())
		}
	})
}
