package adaptnoc_test

// Sharded-tick determinism: the shard count is an execution knob, never a
// simulation parameter. Every test here runs the same configuration serial
// and sharded and requires byte-identical artifacts — Results JSON and
// checkpoint blobs — plus a continuous invariant pass on the sharded path.
// `make race` runs this suite under the race detector, which doubles as
// the proof that the parallel phases share no state outside the barrier.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/obs"
)

// shardCounts are the shard settings every determinism test exercises
// against the serial reference: a two-band split, a split deeper than the
// band count on small chips (clamped internally), and whatever the host
// would auto-select.
func shardCounts() []int {
	counts := []int{2, 4}
	if g := runtime.GOMAXPROCS(0); g != 2 && g != 4 && g > 1 {
		counts = append(counts, g)
	}
	return counts
}

// shardConfigs are the design points the suite covers: the plain mesh
// baseline, an Adapt fabric pinned to torus subNoCs (wraparound links are
// the worst case for band partitioning), and the RL-driven design whose
// epochs reconfigure wiring mid-run.
func shardConfigs() []adaptnoc.Config {
	torus := adaptnoc.DefaultMixed(0)
	for i := range torus {
		torus[i].Static = adaptnoc.Torus
	}
	return []adaptnoc.Config{
		{Design: adaptnoc.DesignBaseline, Apps: adaptnoc.DefaultMixed(0), Seed: 7, EpochCycles: 10000},
		{Design: adaptnoc.DesignAdaptNoRL, Apps: torus, Seed: 7, EpochCycles: 10000},
		{Design: adaptnoc.DesignAdaptNoC, Apps: adaptnoc.DefaultMixed(0), Seed: 7, EpochCycles: 10000},
	}
}

// TestShardedResultsByteIdentical runs each design serial and at every
// shard count and requires byte-identical Results JSON and checkpoint
// blobs. The checkpoint comparison is the stronger claim: not only the
// aggregate numbers but every packet, VC ring, credit counter, and RNG
// stream must land in the same state.
func TestShardedResultsByteIdentical(t *testing.T) {
	t.Parallel()
	const cycles = 20000
	for _, cfg := range shardConfigs() {
		t.Run(cfg.Design.String(), func(t *testing.T) {
			ref, err := adaptnoc.NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(cycles)
			wantRes := resultsJSON(t, ref.Results())
			wantBlob, err := ref.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range shardCounts() {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					s, err := adaptnoc.NewSim(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.SetShards(k)
					defer s.StopWorkers()
					s.Run(cycles)
					if got := resultsJSON(t, s.Results()); !bytes.Equal(got, wantRes) {
						t.Errorf("results differ from serial:\n got %s\nwant %s", got, wantRes)
					}
					blob, err := s.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blob, wantBlob) {
						t.Errorf("checkpoint blob differs from serial (%d vs %d bytes)", len(blob), len(wantBlob))
					}
				})
			}
		})
	}
}

// TestShardedRestoreCrossesShardCounts proves checkpoints are portable
// across shard settings in both directions: a serial blob restored into a
// sharded run and a sharded blob restored into a serial run must both
// finish byte-identical to the uninterrupted serial reference.
func TestShardedRestoreCrossesShardCounts(t *testing.T) {
	t.Parallel()
	const mid, total = 9000, 18000
	cfg := shardConfigs()[2] // the RL design: reconfiguration mid-window
	ref, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(total)
	want := resultsJSON(t, ref.Results())

	serial, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial.Run(mid)
	serialBlob, err := serial.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded.SetShards(2)
	defer sharded.StopWorkers()
	sharded.Run(mid)
	shardedBlob, err := sharded.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialBlob, shardedBlob) {
		t.Fatalf("mid-run blobs differ by shard count (%d vs %d bytes)", len(serialBlob), len(shardedBlob))
	}

	intoSharded, err := adaptnoc.RestoreSim(serialBlob)
	if err != nil {
		t.Fatal(err)
	}
	intoSharded.SetShards(3)
	defer intoSharded.StopWorkers()
	intoSharded.Run(total - mid)
	if got := resultsJSON(t, intoSharded.Results()); !bytes.Equal(got, want) {
		t.Errorf("serial blob + sharded finish diverged:\n got %s\nwant %s", got, want)
	}

	intoSerial, err := adaptnoc.RestoreSim(shardedBlob)
	if err != nil {
		t.Fatal(err)
	}
	intoSerial.Run(total - mid)
	if got := resultsJSON(t, intoSerial.Results()); !bytes.Equal(got, want) {
		t.Errorf("sharded blob + serial finish diverged:\n got %s\nwant %s", got, want)
	}
}

// TestShardedVerifyInvariants runs the full invariant checker every cycle
// of a sharded run: credit conservation, VC exclusivity, and flit
// accounting must hold at every barrier, not just at the end.
func TestShardedVerifyInvariants(t *testing.T) {
	t.Parallel()
	cfg := shardConfigs()[1] // torus subNoCs: wraparound + dateline state
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetShards(4)
	defer s.StopWorkers()
	s.Net.SetVerifier(1, obs.Verify)
	s.Run(6000)
	if err := obs.Verify(s.Net, s.Kernel.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBigGridTiledMixed covers the chip sizes sharding exists for:
// a 16×16 tiled mixed workload, serial vs two shards.
func TestShardedBigGridTiledMixed(t *testing.T) {
	t.Parallel()
	cfg := adaptnoc.Config{
		Design:      adaptnoc.DesignBaseline,
		Apps:        adaptnoc.TiledMixed(16, 16, 0),
		Width:       16,
		Height:      16,
		Seed:        7,
		EpochCycles: 10000,
	}
	const cycles = 6000
	ref, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(cycles)
	want := resultsJSON(t, ref.Results())
	wantBlob, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetShards(2)
	defer s.StopWorkers()
	s.Run(cycles)
	if got := resultsJSON(t, s.Results()); !bytes.Equal(got, want) {
		t.Errorf("16x16 sharded results differ from serial:\n got %s\nwant %s", got, want)
	}
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantBlob) {
		t.Errorf("16x16 checkpoint blob differs from serial (%d vs %d bytes)", len(blob), len(wantBlob))
	}
}
