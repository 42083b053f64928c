package adaptnoc

// Checkpoint/restore: the whole simulation round-trips through a single
// versioned binary blob. The blob embeds the canonical configuration as
// JSON, so a fresh process rebuilds the identical simulation skeleton with
// NewSim and then overlays every layer's dynamic state section by section.
//
// Section order is fixed and mirrors the restore dependencies:
//
//	config   — canonical Config (JSON); drives NewSim
//	fabric   — subNoC topology kinds; replayed first so the network's
//	           wiring and routing tables match the checkpoint
//	fault    — fault engine state + per-app drop tallies (only when the
//	           config schedules faults); re-applies the active damage
//	           against the fabric-replayed base so the net section's
//	           channel validation sees the damaged wiring
//	machine  — cores, apps, MCs, transaction table; restored before the
//	           network so packet payloads can resolve transaction IDs
//	source   — per-app workload-source state (phase positions and RNG
//	           streams, or trace dependency bitmaps)
//	net      — packets, routers, channels, NIs
//	meter    — energy account
//	control  — epoch controller + RL agents (Adapt designs)
//	oscar    — VC partition state (DesignOSCAR)
//	kernel   — clock and future-event list; restored last so events
//	           scheduled during construction and replay are discarded
//
// The sealed blob is framed and gzip-compressed by snap.Seal. A checkpoint
// is only valid for the exact simulator version that wrote it.
//
// Every checkpoint walks every section. What keeps a rolling delta cheap
// is one dirty-tracking tier, inside internal/noc: quiescent routers,
// channels and NIs splice their previous encoding instead of re-encoding
// (noc.SnapshotVerify is its tripwire), and the frame encoder's part-level
// content compare turns unchanged bytes into COPY ops.

import (
	"encoding/json"
	"fmt"
	"os"

	"adaptnoc/internal/snap"
)

// deltaCache remembers the sections of the most recent checkpoint so the
// next CheckpointDeltaChained can diff against them with part-level
// alignment. It is an encoder-side cache only: dropping it never changes
// what restores, just how much work the next delta costs.
type deltaCache struct {
	bodyHash [32]byte
	secs     []snap.DeltaSection

	// Reuse pools carried from generation to generation so a steady-state
	// delta allocates (almost) nothing: retired section buffers keyed by
	// section name (dead once the frame diffing them was encoded), the
	// retired joined-body buffer, and the frame encoder with its deflate
	// state. All encoder-side only — dropping them costs speed, never
	// correctness.
	scratch map[string]snap.DeltaSection
	body    []byte
	enc     *snap.DeltaEncoder
}

// sections is the checkpoint body after its config section, in blob order:
// each layer's name, whether this simulation carries it, and the one
// description (see snap.Codec) that both writes and restores it.
var sections = []struct {
	name    string
	present func(*Sim) bool
	state   func(*Sim, *snap.Codec)
}{
	{"fabric", func(s *Sim) bool { return s.Fabric != nil }, func(s *Sim, c *snap.Codec) { s.Fabric.SnapState(c) }},
	// Pre-fault blobs carry no fault section, and a config without faults
	// builds no engine — both directions stay consistent because the
	// section's presence tracks Cfg.Faults exactly.
	{"fault", func(s *Sim) bool { return s.faults != nil }, func(s *Sim, c *snap.Codec) {
		s.faults.SnapState(c)
		s.Machine.SnapDrops(c)
	}},
	{"machine", always, func(s *Sim, c *snap.Codec) { s.Machine.SnapState(c) }},
	{"source", always, func(s *Sim, c *snap.Codec) { s.Machine.SnapSources(c) }},
	{"net", always, func(s *Sim, c *snap.Codec) { s.Net.SnapState(c, s.Machine) }},
	{"meter", always, func(s *Sim, c *snap.Codec) { s.Meter.SnapState(c) }},
	{"control", func(s *Sim) bool { return s.Ctl != nil }, func(s *Sim, c *snap.Codec) { s.Ctl.SnapState(c) }},
	{"oscar", func(s *Sim) bool { return s.Ctl == nil && s.OSCAR != nil }, func(s *Sim, c *snap.Codec) { s.OSCAR.SnapState(c) }},
	{"kernel", always, func(s *Sim, c *snap.Codec) { s.Kernel.SnapState(c) }},
}

func always(*Sim) bool { return true }

// checkpointSections walks the layers and returns the section list a full
// checkpoint body consists of, in blob order. A chained walk (prev != nil)
// writes over the buffers prev retired instead of allocating.
func (s *Sim) checkpointSections(prev *deltaCache) ([]snap.DeltaSection, error) {
	if s.Cfg.RL.SharedAgent != nil {
		return nil, fmt.Errorf("adaptnoc: a simulation with an in-process shared agent cannot be checkpointed")
	}
	// The config section body is the raw JSON, not Writer-framed, and the
	// config is immutable for a sim's lifetime — a chained walk shares the
	// previous generation's encoding (always section 0).
	var cfgJSON []byte
	if prev != nil {
		cfgJSON = prev.secs[0].Body
	} else {
		var err error
		if cfgJSON, err = json.Marshal(s.Cfg); err != nil {
			return nil, fmt.Errorf("adaptnoc: encoding config: %w", err)
		}
	}
	secs := make([]snap.DeltaSection, 1, 1+len(sections))
	secs[0] = snap.DeltaSection{Name: "config", Body: cfgJSON}
	// One Writer and one Codec serve the whole walk (sec.state is an
	// indirect call, so they live on the heap); each section's bytes leave
	// the Writer before the next one resets it.
	var w snap.Writer
	c := snap.Enc(&w)
	for _, sec := range sections {
		if !sec.present(s) {
			continue
		}
		var retired snap.DeltaSection
		if prev != nil {
			retired = prev.scratch[sec.name]
			delete(prev.scratch, sec.name)
		}
		w.ResetWith(retired.Body, retired.Parts)
		if sec.state(s, &c); c.Err() != nil {
			return nil, fmt.Errorf("adaptnoc: snapshotting %s: %w", sec.name, c.Err())
		}
		secs = append(secs, snap.DeltaSection{Name: sec.name, Body: w.Bytes(), Parts: w.Parts()})
	}
	return secs, nil
}

// Checkpoint serializes the complete simulation state. The simulation can
// keep running afterwards; a checkpoint is a pure read of the simulated
// state (it refreshes the encoder-side delta cache as a side effect).
//
// Configurations carrying an in-process shared RL agent (RL.SharedAgent)
// cannot be checkpointed: the handle has no serialized form inside the
// blob's config, so a restore could not rebuild the sharing.
func (s *Sim) Checkpoint() ([]byte, error) {
	secs, err := s.checkpointSections(nil)
	if err != nil {
		return nil, err
	}
	body := snap.JoinSections(secs)
	d := &deltaCache{bodyHash: snap.BodyHash(body), secs: secs, body: body}
	if old := s.delta; old != nil {
		d.enc = old.enc
	}
	s.delta = d
	return snap.Seal(body), nil
}

// CheckpointDeltaChained encodes a delta frame against the state captured
// by this simulation's most recent Checkpoint or CheckpointDeltaChained
// call — the producer side of a rolling base + delta chain, where the
// previous sealed blob is not kept around. Only what changed since is
// encoded: snap.ApplyChain(base, frames...) reproduces the byte-identical
// blob a full Checkpoint would have returned.
func (s *Sim) CheckpointDeltaChained() ([]byte, error) {
	prev := s.delta
	if prev == nil {
		return nil, fmt.Errorf("adaptnoc: no checkpoint taken yet to chain a delta onto")
	}
	secs, err := s.checkpointSections(prev)
	if err != nil {
		return nil, err
	}
	body := snap.JoinSectionsInto(prev.body, secs)
	newHash := snap.BodyHash(body)
	if prev.enc == nil {
		prev.enc = new(snap.DeltaEncoder)
	}
	frame := prev.enc.Encode(prev.secs, secs, prev.bodyHash, newHash)
	// Once the frame is encoded the previous generation's section buffers
	// are dead, and their capacity is exactly what the same sections want
	// next interval. The config body is shared by every generation and
	// stays out of the pool.
	scratch := prev.scratch // emptied by the walk
	if scratch == nil {
		scratch = make(map[string]snap.DeltaSection, len(prev.secs))
	}
	for _, old := range prev.secs[1:] {
		scratch[old.Name] = old
	}
	s.delta = &deltaCache{bodyHash: newHash, secs: secs, scratch: scratch, body: body, enc: prev.enc}
	return frame, nil
}

// CheckpointBodyHash reports the body hash of this simulation's most
// recent Checkpoint/CheckpointDeltaChained — the chain tip a consumer
// needs to name when negotiating deltas against a remote copy of the base.
// ok is false before the first checkpoint.
func (s *Sim) CheckpointBodyHash() (hash [32]byte, ok bool) {
	if s.delta == nil {
		return hash, false
	}
	return s.delta.bodyHash, true
}

// RestoreSim rebuilds a simulation from a checkpoint blob, in this or any
// other process. The restored simulation continues exactly where the
// checkpointed one stood: running both to the same cycle produces
// byte-identical results.
func RestoreSim(blob []byte) (*Sim, error) {
	r, err := snap.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("adaptnoc: checkpoint header: %w", err)
	}
	cr, err := r.Section("config")
	if err != nil {
		return nil, fmt.Errorf("adaptnoc: checkpoint config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(cr.Rest(), &cfg); err != nil {
		return nil, fmt.Errorf("adaptnoc: checkpoint config: %w", err)
	}
	// Validate bounds the config (grid fit, agent sizes) before NewSim
	// commits any memory to it — a corrupted blob must fail cleanly.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("adaptnoc: checkpoint config: %w", err)
	}
	s, err := NewSim(cfg)
	if err != nil {
		return nil, fmt.Errorf("adaptnoc: rebuilding simulation: %w", err)
	}

	// Every failure past this point names the section it happened in.
	last := "config"
	for _, sec := range sections {
		if !sec.present(s) {
			continue
		}
		sr, err := r.Section(sec.name)
		if err == nil {
			c := snap.Dec(sr)
			sec.state(s, &c)
			if err = c.Err(); err == nil {
				err = sr.Done()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("adaptnoc: restoring %s: %w", sec.name, err)
		}
		last = sec.name
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("adaptnoc: restoring: after %s: %w", last, err)
	}
	return s, nil
}

// WriteCheckpoint serializes the simulation and writes it to path
// atomically (temp file + rename), so a crash mid-write never leaves a
// torn checkpoint behind. Any delta log a ChainWriter left beside an
// earlier checkpoint at this path is removed: it described the old base.
func (s *Sim) WriteCheckpoint(path string) error {
	blob, err := s.Checkpoint()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// Best-effort: a crash landing between the rename and this remove
	// leaves a log whose first frame no longer matches the new base's
	// hash, which restore detects and ignores.
	os.Remove(deltaLogPath(path))
	return nil
}

// DefaultMaxChain is how many delta frames a ChainWriter appends before
// rebasing onto a fresh full checkpoint. Restore cost grows linearly with
// chain length while the per-save win is already maximal at length one,
// so the default keeps worst-case recovery around a second.
const DefaultMaxChain = 64

// deltaLogPath is where a ChainWriter accumulates delta frames for the
// base checkpoint at path.
func deltaLogPath(path string) string { return path + ".delta" }

// ChainWriter persists a rolling checkpoint as a full base blob at Path
// plus an append-only delta log at Path+".delta". The first Save (and
// every MaxDeltas-th after it) writes a full checkpoint and truncates the
// log; every other Save appends one length-prefixed delta frame, which is
// dozens of bytes to a few kilobytes where a full blob is tens of
// kilobytes. RestoreSimFromFile understands the pair, applying the
// longest valid prefix of the log — a torn final append (the crash the
// log exists to survive) costs at most one save interval.
//
// A ChainWriter assumes it is the only checkpoint producer for its
// simulation between its own saves; if something else takes a checkpoint
// in between, the next Save detects the broken lineage by hash and
// rebases onto a full checkpoint instead of appending a frame that could
// never apply.
type ChainWriter struct {
	Path string
	// MaxDeltas caps the log length before a rebase; <= 0 means
	// DefaultMaxChain.
	MaxDeltas int

	started bool
	deltas  int
	tip     [32]byte // body hash of the chain tip on disk
}

// Save persists the simulation's current state: a full checkpoint on the
// first call and at every rebase threshold, a delta frame otherwise.
func (c *ChainWriter) Save(s *Sim) error {
	max := c.MaxDeltas
	if max <= 0 {
		max = DefaultMaxChain
	}
	if c.started && c.deltas < max {
		frame, err := s.CheckpointDeltaChained()
		if err == nil {
			base, result, herr := snap.DeltaHashes(frame)
			if herr == nil && base == c.tip {
				if err := snap.AppendFrame(deltaLogPath(c.Path), frame); err != nil {
					return err
				}
				c.deltas++
				c.tip = result
				return nil
			}
		}
		// No prior checkpoint in this sim, or someone else advanced the
		// sim's delta cache since our last Save: rebase.
	}
	if err := s.WriteCheckpoint(c.Path); err != nil {
		return err
	}
	c.started, c.deltas, c.tip = true, 0, s.delta.bodyHash
	return nil
}

// RestoreSimFromFile reads a checkpoint written by WriteCheckpoint or a
// ChainWriter. When a delta log sits beside the base, the longest valid
// prefix of its frames is applied first, recovering the newest state the
// chain intactly reaches.
func RestoreSimFromFile(path string) (*Sim, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if frames := snap.ReadFrameLog(deltaLogPath(path)); len(frames) > 0 {
		if tip, _, err := snap.ApplyChainPrefix(blob, frames...); err == nil {
			blob = tip
		}
	}
	return RestoreSim(blob)
}
