package snap

// Delta frames: version 3 of the checkpoint format encodes a snapshot as
// an edit script against a referenced base snapshot instead of repeating
// every byte. A frame is self-validating — it names the base it applies
// to and the result it must produce by content hash, so applying a frame
// to the wrong base (or a frame corrupted in flight) fails loudly instead
// of silently reconstructing garbage.
//
// Frame layout (uncompressed header, compressed payload):
//
//	"ADNOCDLT" | u32 version=3 | baseHash[32] | newHash[32] | gzip(payload)
//
// The hashes are SHA-256 over the *uncompressed body* of the respective
// full blobs (the section stream Seal would compress), not over the sealed
// bytes. Hashing bodies keeps the encoder off the expensive gzip path —
// it never has to seal a full blob just to learn its identity — while
// ApplyChain re-seals deterministically, so base ⊕ delta reproduces the
// exact sealed v2 blob a full Checkpoint would have written.
//
// The payload replays the new body's section stream:
//
//	uvarint nSections, then per section:
//	  name (length-prefixed string)
//	  uvarint newLen (reconstructed section body length)
//	  ops until newLen bytes are produced:
//	    0 COPY baseOff n       — copy n bytes from the base section body
//	    1 XOR  baseOff n data  — base[baseOff:+n] XOR data (n bytes)
//	    2 LIT  n data          — n literal bytes
//
// Offsets are relative to the base *section* body of the same name. XOR
// exists because most component records change only a few low-order
// counter bytes between snapshots: the XOR stream is almost all zeros and
// the payload compression crushes it, where a literal would repay the
// full record.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// DeltaMagic and DeltaVersion identify a delta frame. A delta frame is
// never accepted where a full blob is required and vice versa — the magics
// differ — but both share the version counter's meaning: any format change
// bumps it.
const (
	DeltaMagic   = "ADNOCDLT"
	DeltaVersion = 3
)

// deltaHeaderLen is the fixed frame prefix: magic, version, two hashes.
const deltaHeaderLen = len(DeltaMagic) + 4 + 32 + 32

// Delta op codes.
const (
	opCopy = 0
	opXOR  = 1
	opLit  = 2
)

// BodyHash is the content identity used by delta frames: SHA-256 over a
// full blob's uncompressed body.
func BodyHash(body []byte) [32]byte { return sha256.Sum256(body) }

// IsDelta reports whether blob starts with the delta frame magic.
func IsDelta(blob []byte) bool {
	return len(blob) >= len(DeltaMagic) && string(blob[:len(DeltaMagic)]) == DeltaMagic
}

// DeltaHashes reads a frame's base and result body hashes without
// decompressing the payload, so a consumer can route or chain frames
// cheaply (the hashes sit in the uncompressed header).
func DeltaHashes(frame []byte) (base, result [32]byte, err error) {
	if !IsDelta(frame) {
		return base, result, &ErrCorrupt{Off: 0, Msg: "bad delta magic"}
	}
	if len(frame) < deltaHeaderLen {
		return base, result, &ErrCorrupt{Off: len(frame), Msg: "truncated delta header"}
	}
	v := binary.LittleEndian.Uint32(frame[len(DeltaMagic):])
	if v != DeltaVersion {
		return base, result, &ErrCorrupt{Off: len(DeltaMagic), Msg: fmt.Sprintf("delta version %d, want %d", v, DeltaVersion)}
	}
	copy(base[:], frame[len(DeltaMagic)+4:])
	copy(result[:], frame[len(DeltaMagic)+4+32:])
	return base, result, nil
}

// DeltaSection is one named section of a snapshot body, with the optional
// part marks its Writer recorded. Sections split from a raw body (no
// Writer in sight) have nil Parts; the encoder then falls back to
// whole-section compare, which still yields COPY for unchanged sections.
type DeltaSection struct {
	Name  string
	Body  []byte
	Parts []Part
}

// SplitSections parses a full blob body into its section list. Returned
// bodies alias the input.
func SplitSections(body []byte) ([]DeltaSection, error) {
	r := NewReader(body)
	var secs []DeltaSection
	for r.Len() > 0 {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		b, err := r.Bytes0()
		if err != nil {
			return nil, err
		}
		secs = append(secs, DeltaSection{Name: name, Body: b})
	}
	return secs, nil
}

// JoinSectionsInto reassembles a body from a section list, inverse of
// SplitSections, writing over dst's backing storage. A periodic producer
// joins a multi-hundred-kilobyte body every interval and discards it right
// after hashing; reusing the previous interval's buffer keeps that churn
// out of the allocator.
func JoinSectionsInto(dst []byte, secs []DeltaSection) []byte {
	var w Writer
	w.ResetWith(dst, nil)
	for _, s := range secs {
		w.Section(s.Name, s.Body)
	}
	return w.Bytes()
}

// DeltaEncoder builds delta frames. A rolling-chain producer encodes a
// frame every checkpoint interval; the encoder's scratch — payload
// writer, span tables, op accumulator, and above all the deflate state
// behind the payload compressor — survives between frames so the
// steady-state cost is the diff itself, not reallocating the machinery.
// The zero value is ready to use. Not safe for concurrent use.
type DeltaEncoder struct {
	pw        Writer
	zw        *gzip.Writer
	baseSpans []span
	newSpans  []span
	opData    []byte
}

// Encode builds a frame that transforms the base section list into the new
// one. baseHash and newHash are the BodyHash of the respective joined
// bodies; the encoder trusts the caller for the base (it never sees the
// base blob) and stamps both into the frame header for apply-time
// validation. Only the returned frame is freshly allocated.
func (e *DeltaEncoder) Encode(baseSecs, newSecs []DeltaSection, baseHash, newHash [32]byte) []byte {
	e.pw.Reset()
	e.pw.Uvarint(uint64(len(newSecs)))
	for i := range newSecs {
		sec := &newSecs[i]
		e.pw.String(sec.Name)
		e.pw.Uvarint(uint64(len(sec.Body)))
		e.diffSection(findSection(baseSecs, sec.Name), sec)
	}

	var out bytes.Buffer
	out.Grow(deltaHeaderLen + len(e.pw.Bytes())/2)
	out.WriteString(DeltaMagic)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], DeltaVersion)
	out.Write(ver[:])
	out.Write(baseHash[:])
	out.Write(newHash[:])
	if e.zw == nil {
		e.zw = gzip.NewWriter(&out)
	} else {
		e.zw.Reset(&out)
	}
	e.zw.OS = 255 // "unknown", the deterministic choice (matches Seal)
	if _, err := e.zw.Write(e.pw.Bytes()); err != nil {
		panic(fmt.Sprintf("snap: gzip to memory failed: %v", err)) // cannot happen
	}
	if err := e.zw.Close(); err != nil {
		panic(fmt.Sprintf("snap: gzip to memory failed: %v", err))
	}
	return out.Bytes()
}

// findSection locates a base section by name. Section lists are a handful
// of entries in blob order, so a linear scan beats building a map.
func findSection(secs []DeltaSection, name string) *DeltaSection {
	for i := range secs {
		if secs[i].Name == name {
			return &secs[i]
		}
	}
	return nil
}

// span is a part-delimited run of a section body.
type span struct {
	key      uint64
	off, end int
}

// spansOf turns a part list into contiguous spans covering the whole
// body, appending over dst's backing storage. A body with no marks is one
// anonymous span.
func spansOf(dst []span, body []byte, parts []Part) []span {
	if len(body) == 0 {
		return dst[:0]
	}
	spans := dst[:0]
	if cap(spans) < len(parts)+1 {
		spans = make([]span, 0, len(parts)+1)
	}
	if len(parts) == 0 || parts[0].Off > 0 {
		end := len(body)
		if len(parts) > 0 {
			end = parts[0].Off
		}
		spans = append(spans, span{key: ^uint64(0), off: 0, end: end})
	}
	for i, p := range parts {
		end := len(body)
		if i+1 < len(parts) {
			end = parts[i+1].Off
		}
		if p.Off > end || p.Off > len(body) {
			// Defensive: out-of-order or out-of-range marks degrade to
			// whole-body treatment rather than corrupting the script.
			return []span{{key: ^uint64(0), off: 0, end: len(body)}}
		}
		if p.Off == end {
			continue // empty span (consecutive marks)
		}
		spans = append(spans, span{key: p.Key, off: p.Off, end: end})
	}
	return spans
}

// diffSection emits the op stream transforming base into sec.
func (e *DeltaEncoder) diffSection(base *DeltaSection, sec *DeltaSection) {
	ob := opsBuilder{w: &e.pw, kind: -1, data: e.opData[:0]}
	defer func() { e.opData = ob.data }()
	if len(sec.Body) == 0 {
		return
	}
	if base == nil || len(base.Body) == 0 {
		ob.lit(sec.Body)
		ob.flush()
		return
	}
	if bytes.Equal(base.Body, sec.Body) {
		ob.copyOp(0, len(sec.Body))
		ob.flush()
		return
	}
	newSpans := spansOf(e.newSpans, sec.Body, sec.Parts)
	baseSpans := spansOf(e.baseSpans, base.Body, base.Parts)
	e.newSpans, e.baseSpans = newSpans, baseSpans
	if len(newSpans) == 1 && len(baseSpans) == 1 {
		// Unstructured section: XOR in place when lengths line up, else
		// emit it literally.
		if len(sec.Body) == len(base.Body) {
			ob.xor(base.Body, 0, sec.Body)
		} else {
			ob.lit(sec.Body)
		}
		ob.flush()
		return
	}

	// Fast path: between two snapshots of a steady system, the component
	// population rarely changes, so the span lists usually carry the same
	// keys in the same order. Pair them positionally and skip the matching
	// machinery — for a section with thousands of marks, building the
	// by-key index every interval would dwarf the diff itself.
	if len(newSpans) == len(baseSpans) {
		aligned := true
		for i := range newSpans {
			if newSpans[i].key != baseSpans[i].key {
				aligned = false
				break
			}
		}
		if aligned {
			for i, s := range newSpans {
				emitSpan(&ob, base.Body, baseSpans[i], sec.Body[s.off:s.end])
			}
			ob.flush()
			return
		}
	}

	// Pass 1: match new spans to base spans by key.
	baseByKey := make(map[uint64]int, len(baseSpans))
	for i, s := range baseSpans {
		if _, dup := baseByKey[s.key]; !dup {
			baseByKey[s.key] = i
		}
	}
	match := make([]int, len(newSpans)) // index into baseSpans, -1 if none
	baseUsed := make([]bool, len(baseSpans))
	for i, s := range newSpans {
		match[i] = -1
		if j, ok := baseByKey[s.key]; ok && !baseUsed[j] {
			match[i] = j
			baseUsed[j] = true
		}
	}
	// Pass 2: pair leftover spans of the same kind positionally. A
	// rescheduled kernel event or a packet that re-entered under a new ID
	// has no key match, but against the i-th unmatched base record of the
	// same kind it usually differs in a handful of counter bytes — worth
	// an XOR where a literal would repay the record.
	unmatchedBase := make(map[uint8][]int)
	for j, s := range baseSpans {
		if !baseUsed[j] && s.key != ^uint64(0) {
			kind := uint8(s.key >> 56)
			unmatchedBase[kind] = append(unmatchedBase[kind], j)
		}
	}
	for i, s := range newSpans {
		if match[i] >= 0 || s.key == ^uint64(0) {
			continue
		}
		kind := uint8(s.key >> 56)
		if q := unmatchedBase[kind]; len(q) > 0 {
			match[i] = q[0]
			unmatchedBase[kind] = q[1:]
		}
	}

	for i, s := range newSpans {
		nb := sec.Body[s.off:s.end]
		j := match[i]
		if j < 0 {
			ob.lit(nb)
			continue
		}
		emitSpan(&ob, base.Body, baseSpans[j], nb)
	}
	ob.flush()
}

// emitSpan diffs one new-span body against its matched base span: COPY
// when identical, XOR when same-length, literal otherwise.
func emitSpan(ob *opsBuilder, baseBody []byte, bs span, nb []byte) {
	bb := baseBody[bs.off:bs.end]
	switch {
	case bytes.Equal(bb, nb):
		ob.copyOp(bs.off, len(nb))
	case len(bb) == len(nb):
		ob.xor(bb, bs.off, nb)
	default:
		ob.lit(nb)
	}
}

// opsBuilder accumulates ops, merging adjacent compatible ones (a COPY
// whose base run continues the previous COPY, consecutive literals, an
// XOR continuing the previous XOR's base run) so long unchanged stretches
// cost a few bytes.
type opsBuilder struct {
	w       *Writer
	kind    int // -1: none pending
	baseOff int
	n       int
	data    []byte // LIT literal or XOR difference bytes
}

func (b *opsBuilder) copyOp(baseOff, n int) {
	if n == 0 {
		return
	}
	if b.kind == opCopy && b.baseOff+b.n == baseOff {
		b.n += n
		return
	}
	b.flush()
	b.kind, b.baseOff, b.n = opCopy, baseOff, n
}

func (b *opsBuilder) lit(data []byte) {
	if len(data) == 0 {
		return
	}
	if b.kind == opLit {
		b.data = append(b.data, data...)
		return
	}
	b.flush()
	b.kind = opLit
	b.data = append(b.data[:0], data...)
}

func (b *opsBuilder) xor(baseRun []byte, baseOff int, newRun []byte) {
	if len(newRun) == 0 {
		return
	}
	if b.kind != opXOR || b.baseOff+len(b.data) != baseOff {
		b.flush()
		b.kind, b.baseOff = opXOR, baseOff
		b.data = b.data[:0]
	}
	start := len(b.data)
	b.data = append(b.data, newRun...)
	for i := range newRun {
		b.data[start+i] ^= baseRun[i]
	}
}

func (b *opsBuilder) flush() {
	switch b.kind {
	case opCopy:
		b.w.Uvarint(opCopy)
		b.w.Uvarint(uint64(b.baseOff))
		b.w.Uvarint(uint64(b.n))
	case opXOR:
		b.w.Uvarint(opXOR)
		b.w.Uvarint(uint64(b.baseOff))
		b.w.Bytes0(b.data)
	case opLit:
		b.w.Uvarint(opLit)
		b.w.Bytes0(b.data)
	}
	b.kind = -1
	b.n = 0
	b.data = b.data[:0]
}

// applyBody reconstructs the new body from a base body and one frame,
// verifying both hashes. The returned slice is freshly allocated.
func applyBody(baseBody []byte, frame []byte) ([]byte, error) {
	wantBase, wantNew, err := DeltaHashes(frame)
	if err != nil {
		return nil, err
	}
	if BodyHash(baseBody) != wantBase {
		return nil, &ErrCorrupt{Off: len(DeltaMagic) + 4, Msg: "delta base hash mismatch"}
	}
	zr, err := gzip.NewReader(bytes.NewReader(frame[deltaHeaderLen:]))
	if err != nil {
		return nil, &ErrCorrupt{Off: deltaHeaderLen, Msg: fmt.Sprintf("bad delta payload: %v", err)}
	}
	payload, err := io.ReadAll(io.LimitReader(zr, maxBodyBytes+1))
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, &ErrCorrupt{Off: deltaHeaderLen, Msg: fmt.Sprintf("bad delta payload: %v", err)}
	}
	if len(payload) > maxBodyBytes {
		return nil, &ErrCorrupt{Off: deltaHeaderLen, Msg: fmt.Sprintf("payload exceeds %d bytes", maxBodyBytes)}
	}
	baseSecs, err := SplitSections(baseBody)
	if err != nil {
		return nil, fmt.Errorf("snap: base blob: %w", err)
	}
	byName := make(map[string][]byte, len(baseSecs))
	for _, s := range baseSecs {
		byName[s.Name] = s.Body
	}

	r := NewReader(payload)
	nSec, err := r.Count(2)
	if err != nil {
		return nil, err
	}
	var out Writer
	total := 0
	for i := 0; i < nSec; i++ {
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		newLen64, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if newLen64 > maxBodyBytes || total+int(newLen64) > maxBodyBytes {
			return nil, r.corrupt(fmt.Sprintf("section %q claims %d bytes", name, newLen64))
		}
		newLen := int(newLen64)
		total += newLen
		baseSec := byName[name]
		body := make([]byte, 0, newLen)
		for len(body) < newLen {
			tag, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			switch tag {
			case opCopy:
				off64, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				n64, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				if off64 > uint64(len(baseSec)) || n64 > uint64(len(baseSec))-off64 {
					return nil, r.corrupt(fmt.Sprintf("COPY [%d:+%d] outside base section %q (%d bytes)", off64, n64, name, len(baseSec)))
				}
				if int(n64) > newLen-len(body) {
					return nil, r.corrupt("COPY overruns section length")
				}
				body = append(body, baseSec[off64:off64+n64]...)
			case opXOR:
				off64, err := r.Uvarint()
				if err != nil {
					return nil, err
				}
				data, err := r.Bytes0()
				if err != nil {
					return nil, err
				}
				if off64 > uint64(len(baseSec)) || uint64(len(data)) > uint64(len(baseSec))-off64 {
					return nil, r.corrupt(fmt.Sprintf("XOR [%d:+%d] outside base section %q (%d bytes)", off64, len(data), name, len(baseSec)))
				}
				if len(data) > newLen-len(body) {
					return nil, r.corrupt("XOR overruns section length")
				}
				start := len(body)
				body = append(body, data...)
				base := baseSec[off64:]
				for j := range data {
					body[start+j] ^= base[j]
				}
			case opLit:
				data, err := r.Bytes0()
				if err != nil {
					return nil, err
				}
				if len(data) == 0 {
					return nil, r.corrupt("empty LIT")
				}
				if len(data) > newLen-len(body) {
					return nil, r.corrupt("LIT overruns section length")
				}
				body = append(body, data...)
			default:
				return nil, r.corrupt(fmt.Sprintf("delta op %d", tag))
			}
		}
		out.Section(name, body)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	newBody := out.Bytes()
	if BodyHash(newBody) != wantNew {
		return nil, &ErrCorrupt{Off: len(DeltaMagic) + 36, Msg: "delta result hash mismatch"}
	}
	return newBody, nil
}

// ApplyChain reconstructs the full sealed blob a chain of delta frames
// describes: open the base, apply each frame's edit script in order, and
// seal the final body once. Every frame's base and result hashes are
// verified, so the returned blob is byte-identical to the full v2
// checkpoint written at the chain tip's cycle — or the call errors.
func ApplyChain(base []byte, frames ...[]byte) ([]byte, error) {
	if len(frames) == 0 {
		return base, nil
	}
	body, err := OpenBody(base)
	if err != nil {
		return nil, err
	}
	for i, f := range frames {
		body, err = applyBody(body, f)
		if err != nil {
			return nil, fmt.Errorf("snap: delta %d of %d: %w", i+1, len(frames), err)
		}
	}
	return Seal(body), nil
}
