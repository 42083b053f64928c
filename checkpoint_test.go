package adaptnoc_test

// The checkpoint keystone: checkpoint a run mid-flight, restore the blob
// as a fresh process would (from the bytes alone), run both to the same
// cycle, and require byte-identical results — for every design point, for
// an RL run checkpointed mid-epoch, and across a file round-trip. The
// decoder is additionally fuzzed: truncated, corrupted, or wrong-version
// blobs must error, never panic.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
)

// chkConfig is the mixed workload at reduced epoch size, so a checkpoint
// mid-run lands several epochs in under the Adapt designs.
func chkConfig(d adaptnoc.Design) adaptnoc.Config {
	return adaptnoc.Config{
		Design:      d,
		Apps:        adaptnoc.DefaultMixed(0),
		Seed:        1234,
		EpochCycles: 10000,
	}
}

func resultsJSON(t testing.TB, r adaptnoc.Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resumeByteIdentical checkpoints cfg at cycle mid, restores the blob in a
// subtest (from the bytes alone, as a fresh process would), runs both the
// original and the restored simulation to cycle total, and requires their
// results to be byte-identical to an uninterrupted run.
func resumeByteIdentical(t *testing.T, cfg adaptnoc.Config, mid, total adaptnoc.Cycle) {
	t.Helper()

	ref, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(total)
	want := resultsJSON(t, ref.Results())

	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(mid)
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint at cycle %d: %v", mid, err)
	}

	// The restore sees only the blob — the process boundary in miniature.
	t.Run("resume", func(t *testing.T) {
		r, err := adaptnoc.RestoreSim(blob)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if now := r.Kernel.Now(); now != mid {
			t.Fatalf("restored clock at cycle %d, checkpointed at %d", now, mid)
		}
		// A restored simulation re-checkpoints to the identical blob: the
		// encoding is canonical, not an artifact of construction history.
		blob2, err := r.Checkpoint()
		if err != nil {
			t.Fatalf("re-checkpoint: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Errorf("re-checkpoint differs: %d vs %d bytes", len(blob), len(blob2))
		}
		r.Run(total - mid)
		if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
			t.Errorf("resumed results differ from uninterrupted run:\n got %s\nwant %s", got, want)
		}
	})

	// Checkpointing is a pure read: the original continues unperturbed.
	s.Run(total - mid)
	if got := resultsJSON(t, s.Results()); !bytes.Equal(got, want) {
		t.Errorf("checkpointed-then-continued results differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

func TestCheckpointResumeByteIdenticalAllDesigns(t *testing.T) {
	for d := adaptnoc.DesignBaseline; d < adaptnoc.NumDesigns; d++ {
		t.Run(d.String(), func(t *testing.T) {
			// 13000 is mid-epoch (epochs land at 10000, 20000, ...).
			resumeByteIdentical(t, chkConfig(d), 13000, 30000)
		})
	}
}

func TestCheckpointMidEpochRLTraining(t *testing.T) {
	cfg := chkConfig(adaptnoc.DesignAdaptNoC)
	cfg.EpochCycles = 5000
	cfg.RL.Train = true
	// 12500 sits between epoch boundaries, with the DQN agents already
	// holding replay experience and updated weights.
	t.Run("dqn", func(t *testing.T) { resumeByteIdentical(t, cfg, 12500, 30000) })

	qcfg := cfg
	qcfg.UseQTable = true
	t.Run("qtable", func(t *testing.T) { resumeByteIdentical(t, qcfg, 12500, 30000) })
}

func TestCheckpointFileRoundTrip(t *testing.T) {
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
	s.Run(11000)
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	r, err := adaptnoc.RestoreSimFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(14000)
	if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
		t.Errorf("file round-trip results differ:\n got %s\nwant %s", got, want)
	}
}

func TestCheckpointRejectsSharedAgent(t *testing.T) {
	cfg := chkConfig(adaptnoc.DesignAdaptNoC)
	cfg.RL.SharedAgent = rl.NewDQN(rl.DefaultDQNConfig(), sim.NewRNG(1))
	cfg.RL.Train = true
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a shared-agent simulation did not error")
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly. Step through offsets rather
	// than testing all of them: the blob is tens of kilobytes.
	for cut := 0; cut < len(blob); cut += 1 + cut/3 {
		if _, err := adaptnoc.RestoreSim(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes restored successfully", cut, len(blob))
		}
	}
}

func FuzzRestoreSim(f *testing.F) {
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		f.Fatal(err)
	}
	s.Run(2000)
	blob, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:16])
	f.Add([]byte{})
	f.Add([]byte("ADNOCKPTgarbage"))
	wrongVer := append([]byte(nil), blob...)
	wrongVer[8]++ // version word follows the 8-byte magic
	f.Add(wrongVer)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or allocate beyond what the input plausibly
		// describes; errors are the expected outcome for mutated blobs.
		if r, err := adaptnoc.RestoreSim(data); err == nil {
			// A successful restore must at least round-trip.
			if _, err := r.Checkpoint(); err != nil {
				t.Fatalf("restored sim fails to re-checkpoint: %v", err)
			}
		}
	})
}
