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

	"adaptnoc/internal/snap"
)

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
// checkpoint body consists of, in blob order: s.snaps's Walk. Each
// section's buffers come back from an earlier snapshot (snap.SectionSource
// Reuse), so a steady-state walk allocates almost nothing.
func (s *Sim) checkpointSections() ([]snap.DeltaSection, error) {
	if s.Cfg.RL.SharedAgent != nil {
		return nil, fmt.Errorf("adaptnoc: a simulation with an in-process shared agent cannot be checkpointed")
	}
	// The config section body is the raw JSON, not Writer-framed. It is
	// encoded by every full Checkpoint and whenever the config changed
	// (ApplyFaultSchedule); frames share the cached encoding.
	if s.cfgJSON == nil {
		var err error
		if s.cfgJSON, err = json.Marshal(s.Cfg); err != nil {
			return nil, fmt.Errorf("adaptnoc: encoding config: %w", err)
		}
	}
	secs := make([]snap.DeltaSection, 1, 1+len(sections))
	secs[0] = snap.DeltaSection{Name: "config", Body: s.cfgJSON}
	// One Writer and one Codec serve the whole walk (sec.state is an
	// indirect call, so they live on the heap); each section's bytes leave
	// the Writer before the next one resets it.
	var w snap.Writer
	c := snap.Enc(&w)
	for _, sec := range sections {
		if !sec.present(s) {
			continue
		}
		retired := s.snaps.Reuse(sec.name)
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
// state (it becomes the base the next CheckpointDeltaChained diffs
// against).
//
// Configurations carrying an in-process shared RL agent (RL.SharedAgent)
// cannot be checkpointed: the handle has no serialized form inside the
// blob's config, so a restore could not rebuild the sharing.
func (s *Sim) Checkpoint() ([]byte, error) {
	s.cfgJSON = nil
	return s.snaps.Checkpoint()
}

// CheckpointDeltaChained encodes a delta frame against the state captured
// by this simulation's most recent Checkpoint or CheckpointDeltaChained
// call — the producer side of a rolling base + delta chain, where the
// previous sealed blob is not kept around. Only what changed since is
// encoded: snap.ApplyChain(base, frames...) reproduces the byte-identical
// blob a full Checkpoint would have returned.
func (s *Sim) CheckpointDeltaChained() ([]byte, error) { return s.snaps.CheckpointDeltaChained() }

// CheckpointBodyHash reports the body hash of this simulation's most
// recent Checkpoint/CheckpointDeltaChained — the chain tip a consumer
// needs to name when negotiating deltas against a remote copy of the base.
// ok is false before the first checkpoint.
func (s *Sim) CheckpointBodyHash() (hash [32]byte, ok bool) { return s.snaps.CheckpointBodyHash() }

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

// DefaultMaxChain is how many delta frames a ChainWriter appends before
// rebasing onto a fresh full checkpoint. Restore cost grows linearly with
// chain length while the per-save win is already maximal at length one,
// so the default keeps worst-case recovery around a second.
const DefaultMaxChain = 64

// ChainWriter persists a rolling checkpoint at Path as a snap.Chain: a
// full base blob at Path plus an append-only delta log beside it. The
// first Save, and the first after the log reaches DefaultMaxChain frames,
// writes a full checkpoint and removes the log; every other Save appends
// one delta frame, dozens of bytes to a few kilobytes where a full blob
// is tens of kilobytes. A fresh ChainWriter's first Save is therefore
// the way to write one full checkpoint file atomically.
//
// A ChainWriter assumes it is the only checkpoint producer for its
// simulation between its own saves; if something else takes a checkpoint
// in between, the next Save detects the broken lineage by hash and
// rebases onto a full checkpoint.
type ChainWriter struct {
	Path  string
	chain snap.Chain
}

// Save persists the simulation's current state: a full checkpoint on the
// first call and at every rebase, a delta frame otherwise.
func (c *ChainWriter) Save(s *Sim) error { return c.chain.Save(c.Path, DefaultMaxChain, s) }

// RestoreSimFromFile restores a checkpoint a ChainWriter left at path,
// applying the longest valid prefix of its delta log: the newest state
// the chain intactly reaches. A torn final append (the crash the log
// exists to survive) costs at most one save interval.
func RestoreSimFromFile(path string) (*Sim, error) {
	blob, err := snap.ReadChain(path)
	if err != nil {
		return nil, err
	}
	return RestoreSim(blob)
}
