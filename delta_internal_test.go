package adaptnoc

// White-box guard for the one dirty-tracking tier: internal/noc's
// per-component splice caches. A router, channel or NI that reuses its
// previous encoding after a mutation nobody marked would put stale bytes
// in a checkpoint — the one failure mode the self-validating frame format
// cannot catch, because the encoder computes the result hash over the
// stale bytes it believed. noc.SnapshotVerify re-serializes every
// would-be splice and errors on any divergence; running chains under it
// across the designs is the regression net for newly added mutation sites.

import (
	"testing"

	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
)

func TestSnapshotSpliceTruthful(t *testing.T) {
	// Not parallel: it arms the package-level noc.SnapshotVerify.
	noc.SnapshotVerify = true
	defer func() { noc.SnapshotVerify = false }()

	run := func(t *testing.T, cfg Config) {
		s, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(10000)
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.Run(1500)
			if _, err := s.CheckpointDeltaChained(); err != nil {
				t.Fatalf("after %d cycles: %v", s.Kernel.Now(), err)
			}
		}
	}

	base := Config{Apps: DefaultMixed(0), Seed: 1234, EpochCycles: 10000}
	for d := DesignBaseline; d < NumDesigns; d++ {
		cfg := base
		cfg.Design = d
		t.Run(d.String(), func(t *testing.T) { run(t, cfg) })
	}
	t.Run("train", func(t *testing.T) {
		cfg := base
		cfg.Design = DesignAdaptNoC
		cfg.EpochCycles = 5000
		cfg.RL.Train = true
		run(t, cfg)
	})
	t.Run("faults", func(t *testing.T) {
		cfg := base
		cfg.Design = DesignAdaptNoC
		cfg.Faults = []fault.Event{
			{Cycle: 11000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast, Repair: 2500},
		}
		run(t, cfg)
	})
}
