// Package snap is the binary substrate of the checkpoint format: a
// length-aware little-endian Writer/Reader pair, and over them the Codec
// (codec.go) through which every layer states each of its records once,
// as one SnapState description that both encodes and decodes. The
// error-returning Reader methods are the primitive layer under the Codec
// and what the framings use directly (blobs and sections here, delta
// frames in delta.go, the rolling chain and its frame log in chain.go).
//
// The format is deliberately primitive — fixed-width integers, varint
// lengths, length-prefixed byte strings, and named length-prefixed
// sections — because the goal is byte-for-byte reproducibility, not
// schema evolution: a checkpoint is only ever read back by the exact
// simulator version that wrote it (the header pins a format version and
// readers reject anything else).
//
// The Reader is written to be safe on adversarial input: every length is
// bounds-checked against the bytes actually remaining before any
// allocation happens, so a truncated or corrupted blob produces an error,
// never a panic or a multi-gigabyte allocation. The fuzz targets
// (FuzzRestoreSim, FuzzCodecDecode, FuzzDecodeDelta, FuzzReadChain) lean
// on this.
package snap

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic and Version identify a checkpoint blob. Version bumps on any
// format change; version 2 gzip-compresses the body, version 3 keeps the
// arbitration pointer of a detached router output, and readers accept no
// other.
const (
	Magic   = "ADNOCKPT"
	Version = 3
)

// maxBodyBytes caps the decompressed size Open will produce (256 MiB —
// far above any real checkpoint, far below an allocation bomb). A tiny
// adversarial gzip stream can claim gigabytes; the cap keeps the Reader's
// no-allocation-bomb contract intact for compressed blobs.
const maxBodyBytes = 1 << 28

// ErrCorrupt is the error class for malformed input. It carries position
// context for debugging but is otherwise opaque.
type ErrCorrupt struct {
	Off int
	Msg string
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("snap: corrupt input at offset %d: %s", e.Off, e.Msg)
}

// Writer appends primitive values to a growing buffer. The zero value is
// ready to use.
type Writer struct {
	buf   []byte
	parts []Part
}

// Part is a delta-alignment mark: a stable key recorded at a byte offset.
// Layers call Mark at the start of each self-contained component record
// (a packet, a router, a transaction) so the delta encoder can line up
// the same component across two snapshots even when unrelated components
// were inserted or removed between them. Parts are an in-memory aid for
// DeltaEncoder only — they are never serialized into a blob, so marking is
// free to evolve without a format change.
type Part struct {
	Key uint64
	Off int
}

// PartKey builds a Part key from a component kind and a stable identity.
// The kind occupies the top byte so identities from different component
// types inside one section can never collide.
func PartKey(kind uint8, id uint64) uint64 { return uint64(kind)<<56 | id&(1<<56-1) }

// Mark records a part boundary at the current write position.
func (w *Writer) Mark(key uint64) { w.parts = append(w.parts, Part{Key: key, Off: len(w.buf)}) }

// Parts returns the marks recorded so far, in write order.
func (w *Writer) Parts() []Part { return w.parts }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a fixed-width int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U32 appends a fixed-width uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Uvarint appends a varint-encoded length or count.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends an int as a varint-encoded value (two's-complement zigzag).
func (w *Writer) Int(v int) { w.buf = binary.AppendVarint(w.buf, int64(v)) }

// Varint appends a zigzag varint int64.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// F64 appends a float64 by its IEEE-754 bit pattern, preserving the exact
// value including negative zero and NaN payloads.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Reset empties the writer, keeping its backing storage for reuse.
func (w *Writer) Reset() { w.buf, w.parts = w.buf[:0], w.parts[:0] }

// ResetWith empties the writer and adopts the given slices' backing
// storage. Periodic snapshot producers hand a retired generation's buffers
// back this way so a steady-state walk allocates nothing; the caller must
// no longer read through the donated slices.
func (w *Writer) ResetWith(buf []byte, parts []Part) { w.buf, w.parts = buf[:0], parts[:0] }

// Bytes0 appends a length-prefixed byte string.
func (w *Writer) Bytes0(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(xs []float64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.F64(x)
	}
}

// I64s appends a length-prefixed []int64.
func (w *Writer) I64s(xs []int64) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.I64(x)
	}
}

// Section appends a named, length-prefixed sub-blob. Sections give the
// top-level checkpoint its shape and let a reader verify it is consuming
// the layer it expects.
func (w *Writer) Section(name string, body []byte) {
	w.String(name)
	w.Bytes0(body)
}

// Reader consumes a buffer written by Writer. All methods return an error
// instead of panicking on truncated or malformed input, and no method
// allocates more memory than the input could legitimately describe.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps data for reading. The Reader does not copy data;
// returned byte slices alias it.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) corrupt(msg string) error { return &ErrCorrupt{Off: r.off, Msg: msg} }

// U64 reads a fixed-width uint64.
func (r *Reader) U64() (uint64, error) {
	if r.Len() < 8 {
		return 0, r.corrupt("truncated u64")
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// I64 reads a fixed-width int64.
func (r *Reader) I64() (int64, error) {
	v, err := r.U64()
	return int64(v), err
}

// U32 reads a fixed-width uint32.
func (r *Reader) U32() (uint32, error) {
	if r.Len() < 4 {
		return 0, r.corrupt("truncated u32")
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// Uvarint reads a varint-encoded unsigned value.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.corrupt("bad uvarint")
	}
	r.off += n
	return v, nil
}

// Varint reads a zigzag varint int64.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, r.corrupt("bad varint")
	}
	r.off += n
	return v, nil
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() (int, error) {
	v, err := r.Varint()
	return int(v), err
}

// Bool reads a 0/1 byte; any other value is corruption.
func (r *Reader) Bool() (bool, error) {
	if r.Len() < 1 {
		return false, r.corrupt("truncated bool")
	}
	b := r.buf[r.off]
	r.off++
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, r.corrupt(fmt.Sprintf("bool byte %#x", b))
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() (float64, error) {
	v, err := r.U64()
	return math.Float64frombits(v), err
}

// Count reads a varint element count and verifies that at least minBytes
// bytes per element remain, so callers can size slices without an
// allocation bomb. minBytes must be >= 1.
func (r *Reader) Count(minBytes int) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.Len())/uint64(minBytes) {
		return 0, r.corrupt(fmt.Sprintf("count %d exceeds remaining input", n))
	}
	return int(n), nil
}

// Bytes0 reads a length-prefixed byte string, aliasing the input buffer.
func (r *Reader) Bytes0() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, r.corrupt(fmt.Sprintf("byte string length %d exceeds remaining %d", n, r.Len()))
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.Bytes0()
	return string(b), err
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() ([]float64, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, n)
	for i := range xs {
		if xs[i], err = r.F64(); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() ([]int64, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	xs := make([]int64, n)
	for i := range xs {
		if xs[i], err = r.I64(); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// Rest consumes and returns every unread byte, aliasing the input buffer.
// Sections whose body is an opaque blob (the checkpoint's embedded config
// JSON) read it this way.
func (r *Reader) Rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Section reads a named sub-blob and verifies the name matches. The
// returned Reader covers exactly the section body, so over- or under-reads
// inside one layer cannot silently shift the next layer's decode.
func (r *Reader) Section(name string) (*Reader, error) {
	got, err := r.String()
	if err != nil {
		return nil, err
	}
	if got != name {
		return nil, r.corrupt(fmt.Sprintf("section %q, want %q", got, name))
	}
	body, err := r.Bytes0()
	if err != nil {
		return nil, err
	}
	return NewReader(body), nil
}

// Done verifies the reader consumed its input exactly. Layers call it at
// the end of their section so stray bytes are caught where they occur.
func (r *Reader) Done() error {
	if r.Len() != 0 {
		return r.corrupt(fmt.Sprintf("%d trailing bytes", r.Len()))
	}
	return nil
}

// SealAs frames a body as a complete blob of one kind: its magic, a u32
// format version, then the gzip-compressed body. Go's gzip output is
// deterministic for a given input (no timestamp: the header's ModTime is
// zero and the OS byte is fixed), so sealing the same body always yields
// the same bytes — blobs stay content-addressable. Checkpoints and
// dependency traces (internal/traffic) share this framing.
func SealAs(magic string, version uint32, body []byte) []byte {
	var out bytes.Buffer
	out.WriteString(magic)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], version)
	out.Write(ver[:])
	zw := gzip.NewWriter(&out)
	zw.OS = 255 // "unknown", the deterministic choice
	if _, err := zw.Write(body); err != nil {
		panic(fmt.Sprintf("snap: gzip to memory failed: %v", err)) // cannot happen
	}
	if err := zw.Close(); err != nil {
		panic(fmt.Sprintf("snap: gzip to memory failed: %v", err))
	}
	return out.Bytes()
}

// Seal is SealAs for a checkpoint blob at the current format version.
func Seal(body []byte) []byte { return SealAs(Magic, Version, body) }

// OpenAs verifies a blob's magic and version and returns the decoded
// body bytes, decompressed: the inverse of SealAs. Other versions and
// malformed compression are corruption errors, and the decompressed size
// is capped so a malicious blob cannot demand an arbitrary allocation.
func OpenAs(magic string, version uint32, blob []byte) ([]byte, error) {
	r := NewReader(blob)
	if r.Len() < len(magic) {
		return nil, r.corrupt("truncated magic")
	}
	if string(r.buf[r.off:r.off+len(magic)]) != magic {
		return nil, r.corrupt("bad magic")
	}
	r.off += len(magic)
	v, err := r.U32()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, r.corrupt(fmt.Sprintf("format version %d, want %d", v, version))
	}
	z := r.Rest()
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		return nil, &ErrCorrupt{Off: r.off, Msg: fmt.Sprintf("bad gzip body: %v", err)}
	}
	// The gzip trailer's ISIZE states the body length (mod 2^32), so the
	// body can be read into one allocation instead of regrowing from 512
	// bytes. The trailer is unchecked until the read ends, so the presize
	// is capped at what z could really inflate to. The spare MinRead bytes
	// let the read that reports EOF finish without growing the buffer.
	size := uint64(binary.LittleEndian.Uint32(z[len(z)-4:]))
	size = min(size, maxBodyBytes, maxDeflateRatio*uint64(len(z)))
	var body bytes.Buffer
	body.Grow(int(size) + bytes.MinRead)
	_, err = body.ReadFrom(io.LimitReader(zr, maxBodyBytes+1))
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, &ErrCorrupt{Off: r.off, Msg: fmt.Sprintf("bad gzip body: %v", err)}
	}
	if body.Len() > maxBodyBytes {
		return nil, &ErrCorrupt{Off: r.off, Msg: fmt.Sprintf("body exceeds %d bytes", maxBodyBytes)}
	}
	return body.Bytes(), nil
}

// maxDeflateRatio bounds how many bytes one compressed byte can inflate
// to (a deflate length-258 copy costs at least 2 bits, ~1032:1).
const maxDeflateRatio = 1032

// OpenBody is OpenAs for a checkpoint blob.
func OpenBody(blob []byte) ([]byte, error) { return OpenAs(Magic, Version, blob) }

// Open is OpenBody returning a Reader over the body.
func Open(blob []byte) (*Reader, error) {
	body, err := OpenBody(blob)
	if err != nil {
		return nil, err
	}
	return NewReader(body), nil
}
