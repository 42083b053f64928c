package snap

// Rolling checkpoint chains: a full base blob plus the delta frames
// extending it, oldest first. Chain owns the decision to append a frame or
// rebase, the frame bound, and the lineage rule (a frame is kept only if
// its base hash is the tip). Chain.Save keeps the chain on disk;
// Chain.Next hands each link to a caller that keeps it in memory.
//
// On disk a chain at path is the sealed base at path, rewritten
// atomically through path+".tmp", and an append-only log of
// length-prefixed frames at path+".delta". A crash can damage at most the
// log's final record; ReadChain applies the longest valid prefix, and a
// record describing a superseded base ends it, as its hash shows.

import (
	"encoding/binary"
	"errors"
	"os"
	"strings"
)

// The files a chain keeps beside its base at path.
const (
	logSuffix = ".delta"
	tmpSuffix = ".tmp"
)

// Source is what a Chain snapshots: a state that seals itself as a full
// blob, encodes a delta frame against its own previous snapshot, and
// names the body hash of that snapshot. *adaptnoc.Sim is one.
type Source interface {
	Checkpoint() ([]byte, error)
	CheckpointDeltaChained() ([]byte, error)
	CheckpointBodyHash() ([32]byte, bool)
}

// Chain is the producer state of one rolling chain. The zero value is an
// empty chain whose first link is a full base. A Chain assumes it is its
// Source's only snapshot taker between its own links; if something else
// snapshots the source in between, the next frame's base hash no longer
// names the tip and the chain rebases instead of keeping a frame that
// could never apply.
type Chain struct {
	based  bool
	frames int      // frames since the base
	tip    [32]byte // body hash of the newest link
}

// Next takes the chain's next link from src: a delta frame extending the
// tip while the chain holds fewer than maxFrames frames and the lineage
// holds, a full base otherwise. frame reports which. A failed full
// snapshot leaves the chain as it was.
func (c *Chain) Next(src Source, maxFrames int) (link []byte, frame bool, err error) {
	if c.based && c.frames < maxFrames {
		if f, err := src.CheckpointDeltaChained(); err == nil {
			if base, tip, err := DeltaHashes(f); err == nil && base == c.tip {
				c.frames++
				c.tip = tip
				return f, true, nil
			}
		}
	}
	blob, err := src.Checkpoint()
	if err != nil {
		return nil, false, err
	}
	c.tip, _ = src.CheckpointBodyHash()
	c.based, c.frames = true, 0
	return blob, false, nil
}

// Save persists the chain's next link at path: a frame is appended to the
// log; a base replaces the file at path atomically and removes the log,
// which described the old base. A failed write forgets the chain, so the
// next Save rebases rather than extend a link the disk may not hold.
func (c *Chain) Save(path string, maxFrames int, src Source) error {
	link, frame, err := c.Next(src, maxFrames)
	if err != nil {
		return err
	}
	if frame {
		err = appendRecord(path+logSuffix, link)
	} else {
		err = writeBase(path, link)
	}
	if err != nil {
		*c = Chain{}
	}
	return err
}

// appendRecord appends one length-prefixed record to the log at path,
// creating it if needed, with a single Write call to keep the torn-tail
// window as small as the OS allows.
func appendRecord(path string, frame []byte) error {
	rec := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(frame)), uint64(len(frame)))
	rec = append(rec, frame...)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(rec)
	return errors.Join(err, f.Close())
}

func writeBase(path string, blob []byte) error {
	tmp := path + tmpSuffix
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// Best-effort: a crash landing between the rename and this remove
	// leaves a log whose first frame no longer names the new base, which
	// recovery detects and ignores.
	os.Remove(path + logSuffix)
	return nil
}

// ReadChain reads the chain at path and returns the newest state it
// intactly reaches as a full sealed blob: the base with the longest valid
// prefix of its log applied. A missing log is an empty one.
func ReadChain(path string) ([]byte, error) {
	base, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	log, _ := os.ReadFile(path + logSuffix)
	return recoverChain(base, log), nil
}

// recoverChain applies log's records to base in order, stopping at the
// first torn record or the first frame that does not extend the state so
// far. With no frame applied it returns base itself — also when base does
// not open, leaving that error to the caller's restore.
func recoverChain(base, log []byte) []byte {
	if len(log) == 0 {
		return base
	}
	body, err := OpenBody(base)
	if err != nil {
		return base
	}
	applied := false
	for r := NewReader(log); r.Len() > 0; {
		f, err := r.Bytes0()
		if err != nil {
			break
		}
		next, err := applyBody(body, f)
		if err != nil {
			break
		}
		body, applied = next, true
	}
	if !applied {
		return base
	}
	return Seal(body)
}

// IsChainFile reports whether a file name is a chain's log or an
// interrupted base rewrite rather than a base — what a sweep of a
// directory of chains can tell apart by name.
func IsChainFile(name string) bool {
	return strings.HasSuffix(name, logSuffix) || strings.HasSuffix(name, tmpSuffix)
}

// FramesAfter returns the frames of the chain base+frames that follow the
// link whose body hash is want — all of them when want names the base,
// none when it names the tip. ok is false when no link matches.
func FramesAfter(base []byte, frames [][]byte, want [32]byte) (after [][]byte, ok bool) {
	if body, err := OpenBody(base); err == nil && BodyHash(body) == want {
		return frames, true
	}
	for i, f := range frames {
		if _, result, err := DeltaHashes(f); err == nil && result == want {
			return frames[i+1:], true
		}
	}
	return nil, false
}

// FrameLog serializes frames in the log's length-prefixed format — the
// wire shape a checkpoint endpoint ships a chain suffix in.
func FrameLog(frames [][]byte) []byte {
	var w Writer
	for _, f := range frames {
		w.Bytes0(f)
	}
	return w.Bytes()
}

// ParseFrameLog is the strict inverse of FrameLog: unlike ReadChain it
// rejects a torn tail, because on the wire truncation means a damaged
// response, not a survivable crash artifact.
func ParseFrameLog(data []byte) ([][]byte, error) {
	r := NewReader(data)
	var frames [][]byte
	for r.Len() > 0 {
		f, err := r.Bytes0()
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// SectionSource is the Source of a state that describes itself as a list
// of sections. It keeps the newest snapshot's sections, which the next
// frame diffs against, and what lets a steady-state snapshot allocate
// (almost) nothing: the frame encoder with its deflate state, the joined
// body buffer, and the section buffers of earlier snapshots, dead once a
// newer one exists, which Reuse hands back to the walk.
type SectionSource struct {
	// Walk returns the state's sections in body order.
	Walk func() ([]DeltaSection, error)

	hash  [32]byte
	secs  []DeltaSection // the newest snapshot's; nil before the first
	spare map[string]DeltaSection
	body  []byte
	enc   DeltaEncoder
}

// Reuse hands out, once, the storage of the named section from an
// earlier snapshot, which nothing refers to any more, for the walk to
// write over (ResetWith); the zero DeltaSection when there is none. A walk
// that returns storage it keeps elsewhere must not Reuse that section.
func (s *SectionSource) Reuse(name string) DeltaSection {
	sec := s.spare[name]
	delete(s.spare, name)
	return sec
}

// Checkpoint walks the state and seals it as a full blob.
func (s *SectionSource) Checkpoint() ([]byte, error) {
	if _, err := s.advance(); err != nil {
		return nil, err
	}
	return Seal(s.body), nil
}

// CheckpointDeltaChained walks the state and encodes it as a frame
// against the previous snapshot.
func (s *SectionSource) CheckpointDeltaChained() ([]byte, error) {
	if s.secs == nil {
		return nil, errors.New("snap: no snapshot taken yet to chain a delta onto")
	}
	prevHash := s.hash
	prev, err := s.advance()
	if err != nil {
		return nil, err
	}
	return s.enc.Encode(prev, s.secs, prevHash, s.hash), nil
}

// advance walks the state into the newest snapshot and retires the one
// before, which it returns, into the spares.
func (s *SectionSource) advance() (prev []DeltaSection, err error) {
	secs, err := s.Walk()
	if err != nil {
		return nil, err
	}
	prev, s.secs = s.secs, secs
	s.body = JoinSectionsInto(s.body, secs)
	s.hash = BodyHash(s.body)
	if s.spare == nil {
		s.spare = make(map[string]DeltaSection, len(secs))
	}
	for _, old := range prev {
		s.spare[old.Name] = old
	}
	return prev, nil
}

// CheckpointBodyHash names the newest snapshot; ok is false before the
// first.
func (s *SectionSource) CheckpointBodyHash() ([32]byte, bool) { return s.hash, s.secs != nil }
