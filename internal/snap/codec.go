package snap

import (
	"fmt"
	"sort"
)

// Codec runs one field description in either direction: over a Writer it
// encodes the values its methods are pointed at, over a Reader it decodes
// into them. A layer states each record once, as a function of a *Codec,
// and that one function is both its Snapshot and its Restore — field
// order, counts and widths cannot drift apart between the two.
//
// Errors stick. The first failure (a truncated read, a Len mismatch, a
// Failf) is the one Err reports; from then on decoding reads nothing,
// leaves zeros in every target and Count returns 0, so a description needs
// no error plumbing. It needs exactly one kind of guard: before
// dereferencing something a failed read was meant to produce (a packet
// looked up by a decoded ID), check for nil or Err.
//
// Make one Codec per section walk and pass it down by pointer — never one
// per component.
type Codec struct {
	w   *Writer
	r   *Reader
	err error
}

// Enc returns a Codec that appends to w.
func Enc(w *Writer) Codec { return Codec{w: w} }

// Dec returns a Codec that consumes r.
func Dec(r *Reader) Codec { return Codec{r: r} }

// Decoding reports the direction. Work only one direction needs —
// validation, allocation and recomputing derived state when decoding;
// canonical sorting when encoding — branches on it.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first failure, nil if there was none.
func (c *Codec) Err() error { return c.err }

// Failf records a failure unless one is already recorded.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// field is every fixed-shape field method: put when encoding; when
// decoding, zero the target and get into it unless a failure has stuck.
func field[T any](c *Codec, p *T, put func(*Writer, T), get func(*Reader) (T, error)) {
	if c.w != nil {
		put(c.w, *p)
		return
	}
	var zero T
	*p = zero
	if c.err == nil {
		*p, c.err = get(c.r)
	}
}

// I64 is a fixed-width int64 field.
func (c *Codec) I64(p *int64) { field(c, p, (*Writer).I64, (*Reader).I64) }

// U64 is a fixed-width uint64 field.
func (c *Codec) U64(p *uint64) { field(c, p, (*Writer).U64, (*Reader).U64) }

// U32 is a fixed-width uint32 field.
func (c *Codec) U32(p *uint32) { field(c, p, (*Writer).U32, (*Reader).U32) }

// Int is a varint-encoded int field.
func (c *Codec) Int(p *int) { field(c, p, (*Writer).Int, (*Reader).Int) }

// Bool is a single 0/1 byte; any other byte fails the decode.
func (c *Codec) Bool(p *bool) { field(c, p, (*Writer).Bool, (*Reader).Bool) }

// F64 is a float64 field by bit pattern.
func (c *Codec) F64(p *float64) { field(c, p, (*Writer).F64, (*Reader).F64) }

// String is a length-prefixed string field.
func (c *Codec) String(p *string) { field(c, p, (*Writer).String, (*Reader).String) }

// F64s is a length-prefixed []float64 field; decoding allocates it, after
// checking the length against the bytes that remain.
func (c *Codec) F64s(p *[]float64) { field(c, p, (*Writer).F64s, (*Reader).F64s) }

// I64s is a length-prefixed []int64 field, like F64s.
func (c *Codec) I64s(p *[]int64) { field(c, p, (*Writer).I64s, (*Reader).I64s) }

// Count is the element count of a run the checkpoint sizes: n is written
// when encoding and returned; when decoding the stored count is returned,
// after verifying that at least minBytes bytes per element remain — the
// guard that lets the caller allocate or loop on it. 0 after a failure.
func (c *Codec) Count(n, minBytes int) int {
	if c.w != nil {
		c.w.Uvarint(uint64(n))
		return n
	}
	if c.err != nil {
		return 0
	}
	n, c.err = c.r.Count(minBytes)
	return n
}

// Len is the element count of a run the live structure sizes (a router's
// ports, a machine's apps): n is written when encoding and must match when
// decoding. Nothing is allocated from the stored number, so it needs no
// byte guard. what (a format for ids) names the run in the failure, which
// carries both numbers.
func (c *Codec) Len(n int, what string, ids ...int) {
	if c.w != nil {
		c.w.Uvarint(uint64(n))
		return
	}
	if c.err != nil {
		return
	}
	got, err := c.r.Uvarint()
	if err != nil {
		c.err = err
		return
	}
	if got != uint64(n) {
		args := make([]any, 0, len(ids)+2)
		for _, id := range ids {
			args = append(args, id)
		}
		c.err = fmt.Errorf(what+": have %d, checkpoint has %d", append(args, n, got)...)
	}
}

// IntMap is a map from int-like keys to int64-like values, written in key
// order so the encoding is canonical; decoding replaces *m.
func IntMap[K ~int, V ~int64](c *Codec, m *map[K]V) {
	var keys []int
	if !c.Decoding() {
		keys = make([]int, 0, len(*m))
		for k := range *m {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
	}
	n := c.Count(len(keys), 2)
	if c.Decoding() {
		*m = make(map[K]V, n)
	}
	for i := 0; i < n; i++ {
		var k int
		var v int64
		if !c.Decoding() {
			k, v = keys[i], int64((*m)[K(keys[i])])
		}
		c.Int(&k)
		c.I64(&v)
		if c.Decoding() {
			(*m)[K(k)] = V(v)
		}
	}
}

// Mark records a delta-alignment part boundary when encoding (see Part).
func (c *Codec) Mark(key uint64) {
	if c.w != nil {
		c.w.Mark(key)
	}
}
