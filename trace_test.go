package adaptnoc_test

// Record & replay keystones: a recorded run replays deterministically
// (locked to a golden results file), the replay is byte-identical across
// shard counts, and a replay checkpoints and resumes byte-identically —
// including across a shard-count change at the restore boundary, the
// same guarantees every synthetic workload already has.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/sim"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false,
	"rewrite testdata/golden_trace_replay.json from the current replay output")

// recordMixedTrace runs the mixed workload on a baseline fabric for a
// short window and captures it into a trace blob.
func recordMixedTrace(t testing.TB, cycles adaptnoc.Cycle) []byte {
	t.Helper()
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design:      adaptnoc.DesignBaseline,
		Apps:        adaptnoc.DefaultMixed(0),
		Seed:        2021,
		EpochCycles: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordTrace(); err != nil {
		t.Fatal(err)
	}
	s.Run(cycles)
	tr, err := s.FinishTrace()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := adaptnoc.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// replaySim builds a replay simulation from a trace blob using the
// recorded placements and grid.
func replaySim(t testing.TB, blob []byte) *adaptnoc.Sim {
	t.Helper()
	apps, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		t.Fatal(err)
	}
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design:      adaptnoc.DesignBaseline,
		Width:       w,
		Height:      h,
		Apps:        apps,
		Seed:        2021,
		EpochCycles: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const traceTestMaxCycles = 200000

// TestGoldenTraceReplay locks the record→replay pipeline to
// testdata/golden_trace_replay.json: the recorded blob is rebuilt from
// scratch each run (the recorder is deterministic), replayed to
// completion through a checkpoint round trip, and the replay's results
// JSON must match the golden bytes. Refresh intentionally with:
//
//	go test -run TestGoldenTraceReplay -update-trace-golden
func TestGoldenTraceReplay(t *testing.T) {
	blob := recordMixedTrace(t, 6000)
	s := replaySim(t, blob)
	// Tripwire: at a seeded cycle mid-replay, checkpoint, restore, and
	// re-checkpoint; the blobs must match, and the golden results below
	// come from the restored sim.
	cut := 1 + adaptnoc.Cycle(sim.NewRNG(2021).Intn(5999))
	if s.RunUntilFinished(cut) {
		t.Fatalf("replay finished before the tripwire cycle %d", cut)
	}
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if s, err = adaptnoc.RestoreSim(ckpt); err != nil {
		t.Fatalf("tripwire at cycle %d: %v", cut, err)
	}
	if again, err := s.Checkpoint(); err != nil || !bytes.Equal(ckpt, again) {
		t.Fatalf("tripwire at cycle %d: re-checkpoint of the restored replay differs (err %v)", cut, err)
	}
	if !s.RunUntilFinished(traceTestMaxCycles) {
		t.Fatal("replay did not drain")
	}
	got := resultsJSON(t, s.Results())

	path := filepath.Join("testdata", "golden_trace_replay.json")
	if *updateTraceGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-trace-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace replay drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}

	// The replay rows carry the recorded profile labels, so they merge
	// into the same results tables as synthetic runs.
	res := s.Results()
	if res.Apps[0].Profile != "bfs" || res.Apps[1].Profile != "canneal" {
		t.Fatalf("replay lost the recorded labels: %q, %q", res.Apps[0].Profile, res.Apps[1].Profile)
	}
}

// TestTraceReplayShardByteIdentical replays the same trace serially and
// with four tick shards; the results must be byte-identical.
func TestTraceReplayShardByteIdentical(t *testing.T) {
	blob := recordMixedTrace(t, 5000)

	run := func(shards int) []byte {
		s := replaySim(t, blob)
		s.SetShards(shards)
		if !s.RunUntilFinished(traceTestMaxCycles) {
			t.Fatal("replay did not drain")
		}
		defer s.StopWorkers()
		return resultsJSON(t, s.Results())
	}
	serial := run(1)
	for _, k := range []int{2, 4} {
		if sharded := run(k); !bytes.Equal(serial, sharded) {
			t.Fatalf("replay with %d shards diverged from serial:\n%s\nvs\n%s", k, sharded, serial)
		}
	}
}

// TestTraceReplayCheckpointResume interrupts a replay mid-flight,
// restores the checkpoint from its bytes alone (as a fresh process
// would), and requires byte-identical results against the uninterrupted
// replay — with the restored half running at a different shard count.
func TestTraceReplayCheckpointResume(t *testing.T) {
	blob := recordMixedTrace(t, 5000)

	ref := replaySim(t, blob)
	if !ref.RunUntilFinished(traceTestMaxCycles) {
		t.Fatal("replay did not drain")
	}
	want := resultsJSON(t, ref.Results())
	end := ref.Kernel.Now()

	s := replaySim(t, blob)
	s.Run(2500)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := adaptnoc.RestoreSim(ck)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetShards(4)
	defer restored.StopWorkers()
	if !restored.RunUntilFinished(traceTestMaxCycles) {
		t.Fatal("restored replay did not drain")
	}
	if restored.Kernel.Now() != end {
		t.Fatalf("restored replay finished at cycle %d, reference at %d", restored.Kernel.Now(), end)
	}
	if got := resultsJSON(t, restored.Results()); !bytes.Equal(got, want) {
		t.Fatalf("restored replay diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestRecordTraceAPIMisuse covers the recording preconditions.
func TestRecordTraceAPIMisuse(t *testing.T) {
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps:   adaptnoc.DefaultMixed(0),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FinishTrace(); err == nil {
		t.Fatal("FinishTrace without RecordTrace must fail")
	}
	s.Run(10)
	if err := s.RecordTrace(); err == nil {
		t.Fatal("recording must be rejected after cycle 0")
	}
}

// TestNewSimRejectsBadTraceSpecs covers the replay-spec validation in
// NewSim / resolveTraceSpec.
func TestNewSimRejectsBadTraceSpecs(t *testing.T) {
	blob := recordMixedTrace(t, 2000)
	apps, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		t.Fatal(err)
	}
	base := adaptnoc.Config{Design: adaptnoc.DesignBaseline, Width: w, Height: h, Seed: 1}

	cases := []struct {
		name string
		mut  func(s []adaptnoc.AppSpec)
		want string
	}{
		{"profile and trace", func(s []adaptnoc.AppSpec) { s[0].Profile = "bfs" }, "one or the other"},
		{"instr budget", func(s []adaptnoc.AppSpec) { s[0].InstrBudget = 100 }, "no instruction budget"},
		{"trace app out of range", func(s []adaptnoc.AppSpec) { s[0].TraceApp = 99 }, "index 99"},
		{"resized region", func(s []adaptnoc.AppSpec) { s[0].Region.W += 4; s[0].Region.X -= 4 }, "not resize"},
		{"corrupt blob", func(s []adaptnoc.AppSpec) { s[0].TraceData = []byte("ADNOCTRC junk") }, "trace"},
		{"missing file", func(s []adaptnoc.AppSpec) { s[0].TraceData = nil; s[0].Trace = "/nonexistent.trc" }, "reading trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Apps = append([]adaptnoc.AppSpec(nil), apps...)
			tc.mut(cfg.Apps)
			_, err := adaptnoc.NewSim(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestTraceSpecDoesNotShiftNeighbourStreams proves swapping one app's
// synthetic profile for a trace leaves the other apps' RNG streams — and
// therefore their traffic — untouched.
func TestTraceSpecDoesNotShiftNeighbourStreams(t *testing.T) {
	blob := recordMixedTrace(t, 2000)
	apps, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		t.Fatal(err)
	}

	// All-synthetic reference: the same placements, profiles from the
	// recording.
	synth := adaptnoc.DefaultMixed(0)
	runOne := func(specs []adaptnoc.AppSpec) adaptnoc.Results {
		s, err := adaptnoc.NewSim(adaptnoc.Config{
			Design: adaptnoc.DesignBaseline, Width: w, Height: h,
			Apps: specs, Seed: 2021, EpochCycles: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(3000)
		return s.Results()
	}
	ref := runOne(synth)

	// Replace app 0 with its recorded trace; apps 1 and 2 stay synthetic.
	mixed := append([]adaptnoc.AppSpec(nil), synth...)
	mixed[0] = apps[0]
	got := runOne(mixed)

	for i := 1; i < len(ref.Apps); i++ {
		if got.Apps[i].RetiredInstr != ref.Apps[i].RetiredInstr {
			t.Fatalf("app %d retired %d instructions with a trace neighbour, %d without",
				i, got.Apps[i].RetiredInstr, ref.Apps[i].RetiredInstr)
		}
	}
}
