package adaptnoc_test

// Delta-checkpoint keystone: a base blob plus a chain of delta frames must
// reconstruct the byte-identical full checkpoint at the chain tip — for
// every design, at any shard count, across a process boundary, and through
// the on-disk base + log pair a ChainWriter leaves behind (including the
// torn tails a crash produces).

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/snap"
)

// deltaChain runs a sim to base cycle, then takes steps delta frames
// spaced `every` cycles apart, returning the base blob and the frames.
func deltaChain(t *testing.T, s *adaptnoc.Sim, base adaptnoc.Cycle, steps int, every adaptnoc.Cycle) ([]byte, [][]byte) {
	t.Helper()
	s.Run(base - s.Kernel.Now())
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0, steps)
	for i := 0; i < steps; i++ {
		s.Run(every)
		f, err := s.CheckpointDeltaChained()
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if !snap.IsDelta(f) {
			t.Fatalf("delta %d does not carry the delta magic", i)
		}
		frames = append(frames, f)
	}
	return blob, frames
}

// TestDeltaChainByteIdenticalAllDesigns is the core equivalence: applying
// the chain reproduces, byte for byte, the full checkpoint the sim would
// write at the tip cycle.
func TestDeltaChainByteIdenticalAllDesigns(t *testing.T) {
	t.Parallel()
	for d := adaptnoc.DesignBaseline; d < adaptnoc.NumDesigns; d++ {
		t.Run(d.String(), func(t *testing.T) {
			s, err := adaptnoc.NewSim(chkConfig(d))
			if err != nil {
				t.Fatal(err)
			}
			base, frames := deltaChain(t, s, 10000, 3, 2000)
			applied, err := snap.ApplyChain(base, frames...)
			if err != nil {
				t.Fatal(err)
			}
			full, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(applied, full) {
				t.Fatalf("base ⊕ %d deltas (%d bytes) differs from full checkpoint (%d bytes)",
					len(frames), len(applied), len(full))
			}
		})
	}
}

// TestDeltaChainWithFaults covers the fault section: a chain spanning a
// strike, its drain, and its repair still reconstructs the full blob
// exactly.
func TestDeltaChainWithFaults(t *testing.T) {
	t.Parallel()
	cfg := faultConfig(adaptnoc.DesignAdaptNoC,
		fault.Event{Cycle: 11000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast, Repair: 3000})
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, frames := deltaChain(t, s, 10000, 4, 2000)
	applied, err := snap.ApplyChain(base, frames...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(applied, full) {
		t.Fatal("faulted chain does not reconstruct the full checkpoint")
	}
}

// TestDeltaResumeByteIdentical restores a chain-reconstructed blob in a
// fresh sim and requires the resumed run to match the uninterrupted one.
func TestDeltaResumeByteIdentical(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		t.Fatal(err)
	}
	base, frames := deltaChain(t, s, 10000, 3, 2000) // tip at 16000
	applied, err := snap.ApplyChain(base, frames...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := adaptnoc.RestoreSim(applied)
	if err != nil {
		t.Fatal(err)
	}
	if now := r.Kernel.Now(); now != 16000 {
		t.Fatalf("restored clock at %d, want 16000", now)
	}
	r.Run(14000)
	s.Run(14000)
	if got, want := resultsJSON(t, r.Results()), resultsJSON(t, s.Results()); !bytes.Equal(got, want) {
		t.Errorf("delta-resumed results differ:\n got %s\nwant %s", got, want)
	}
}

// TestDeltaFramesShardInvariant: the frame bytes are a pure function of
// simulation content, so chains produced at different shard counts are
// byte-identical — a delta written by a sharded worker applies against a
// base written by an unsharded one.
func TestDeltaFramesShardInvariant(t *testing.T) {
	t.Parallel()
	make := func(shards int) ([]byte, [][]byte) {
		s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
		if err != nil {
			t.Fatal(err)
		}
		s.SetShards(shards)
		return deltaChain(t, s, 10000, 2, 2000)
	}
	base1, frames1 := make(1)
	base4, frames4 := make(4)
	if !bytes.Equal(base1, base4) {
		t.Fatal("base blobs differ across shard counts")
	}
	for i := range frames1 {
		if !bytes.Equal(frames1[i], frames4[i]) {
			t.Errorf("delta frame %d differs across shard counts (%d vs %d bytes)",
				i, len(frames1[i]), len(frames4[i]))
		}
	}
}

// TestDeltaQuiescentIsTiny is the "near-free" claim at its limit: with no
// simulated work between two checkpoints, the delta collapses to the
// frame header plus a compressed all-COPY script. The steady case is the
// regime long campaigns live in — one small app region on a mostly idle
// grid, a save every 1000 cycles — where a frame must stay at least 5x
// smaller than the full blob it chains from (sizes are deterministic for
// a seed, so this is an assertion, not a timing gate).
func TestDeltaQuiescentIsTiny(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(20000)
	full, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := s.CheckpointDeltaChained()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 512 {
		t.Errorf("quiescent delta is %d bytes, want <= 512", len(frame))
	}
	if len(frame)*20 > len(full) {
		t.Errorf("quiescent delta %d bytes not <= 1/20 of full %d bytes", len(frame), len(full))
	}
	applied, err := snap.ApplyChain(full, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(applied, full) {
		t.Fatal("quiescent delta does not reproduce its base")
	}

	t.Run("steady-24x24", func(t *testing.T) {
		s, err := adaptnoc.NewSim(adaptnoc.Config{
			Design: adaptnoc.DesignBaseline, Width: 24, Height: 24,
			Apps: []adaptnoc.AppSpec{{Profile: "blackscholes", Region: adaptnoc.Region{W: 4, H: 4}}},
			Seed: 1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		full, frames := deltaChain(t, s, 20000, 1, 1000)
		if len(frames[0])*5 > len(full) {
			t.Errorf("steady delta %d bytes not <= 1/5 of full %d bytes", len(frames[0]), len(full))
		}
		applied, err := snap.ApplyChain(full, frames[0])
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(applied, fresh) {
			t.Fatal("steady delta does not reconstruct the full checkpoint at its cycle")
		}
	})
}

// TestChainWriterRoundTrip drives the CLI-facing path end to end: a
// checkpointed run leaves a base + delta log pair, RestoreSimFromFile
// resumes from the chain tip, and the resumed run matches the
// uninterrupted one. Then the log is damaged the ways a crash damages it.
func TestChainWriterRoundTrip(t *testing.T) {
	t.Parallel()
	cfg := chkConfig(adaptnoc.DesignAdaptNoC)
	ref, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(25000)
	want := resultsJSON(t, ref.Results())

	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "roll.ckpt")
	cw := &adaptnoc.ChainWriter{Path: path}
	if _, err := s.RunTo(context.Background(), 15000, 2000, func() error { return cw.Save(s) }); err != nil {
		t.Fatal(err)
	}
	logPath := path + ".delta"
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatalf("no delta log beside the base: %v", err)
	}
	baseFi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 7 frames (saves at 4k..14k and 15k on top of the 2k base) must cost
	// less than 7 more full blobs would. Under saturated traffic the
	// packet population churns completely between saves, so per-frame
	// savings here are modest; the steady-state regime is asserted by
	// TestDeltaQuiescentIsTiny and measured by the ledger's ckpt_mixed16.
	if fi.Size() >= 7*baseFi.Size() {
		t.Errorf("delta log (%d bytes) not smaller than 7 full checkpoints (%d bytes each)", fi.Size(), baseFi.Size())
	}

	resume := func(t *testing.T, wantCycle adaptnoc.Cycle) {
		t.Helper()
		r, err := adaptnoc.RestoreSimFromFile(path)
		if err != nil {
			t.Fatal(err)
		}
		now := r.Kernel.Now()
		if wantCycle >= 0 && now != wantCycle {
			t.Fatalf("restored clock at %d, want %d", now, wantCycle)
		}
		r.Run(25000 - now)
		if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
			t.Errorf("resumed results differ from uninterrupted run:\n got %s\nwant %s", got, want)
		}
	}
	t.Run("intact", func(t *testing.T) { resume(t, 15000) })

	// A crash mid-append leaves a torn record at the tail; recovery uses
	// the intact prefix.
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("torn-tail", func(t *testing.T) {
		if err := os.WriteFile(logPath, append(append([]byte(nil), log...), 0xff, 0x07, 'x'), 0o644); err != nil {
			t.Fatal(err)
		}
		resume(t, 15000)
	})
	t.Run("half-log", func(t *testing.T) {
		if err := os.WriteFile(logPath, log[:len(log)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		resume(t, -1) // lands on whatever boundary the prefix reaches
	})
	t.Run("no-log", func(t *testing.T) {
		if err := os.Remove(logPath); err != nil {
			t.Fatal(err)
		}
		resume(t, 2000) // the base alone
	})
}

// TestChainWriterRebases: a foreign Checkpoint between saves forces a
// rebase instead of an unappliable frame. (The frame-bound rebase is
// internal/snap's TestChainRebasesAtBound.)
func TestChainWriterRebases(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "roll.ckpt")
	cw := &adaptnoc.ChainWriter{Path: path}
	save := func() {
		t.Helper()
		s.Run(1000)
		if err := cw.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	save() // full @1000
	save() // delta 1
	if _, err := os.Stat(path + ".delta"); err != nil {
		t.Fatalf("second save appended no frame: %v", err)
	}

	// A checkpoint taken outside the writer advances the sim's delta
	// lineage past the writer's tip; the next Save must notice and rebase.
	s.Run(500)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	save() // @3500: lineage broken, expect a fresh full base
	if _, err := os.Stat(path + ".delta"); !os.IsNotExist(err) {
		t.Fatal("broken-lineage save appended a frame instead of rebasing")
	}
	r, err := adaptnoc.RestoreSimFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if now := r.Kernel.Now(); now != 3500 {
		t.Fatalf("restored clock at %d, want 3500", now)
	}
}
