package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenOptions is a deliberately tiny but fully mixed run: three apps,
// all seven designs, fixed seed, pretrained agent. Small enough for the
// ordinary test suite, big enough that every design actually moves flits.
func goldenOptions() Options {
	o := QuickOptions()
	o.Cycles = 12000
	o.Budget = 400
	o.EpochCycles = 4000
	o.OracleProbeCycles = 6000
	return o
}

// restoreTripwire is an Options.Eval that runs each simulation locally
// through a checkpoint round trip: at one cycle drawn from a hash of the
// config, inside the run's first window (or, for a finite config, before
// the cycle a probe run finishes at), it checkpoints, restores, and
// checkpoints the restored sim again, requires the two blobs to be
// byte-identical, and finishes the run from the restored sim. A golden
// run under it still matching its golden file shows restore∘checkpoint
// is the identity at those cycles and that a restored run continues
// exactly. A trip is reported through t as well, since the runner pool
// may surface a sibling's cancellation instead of the first error.
func restoreTripwire(t *testing.T, o Options) Eval {
	return func(ctx context.Context, cfg adaptnoc.Config, limit adaptnoc.Cycle) (adaptnoc.Results, error) {
		s, err := adaptnoc.NewSim(cfg)
		if err != nil {
			return adaptnoc.Results{}, err
		}
		span := min(limit, o.Cycles)
		if cfg.Finite() {
			probe, _ := adaptnoc.NewSim(cfg) // cfg built once already
			probe.RunTo(ctx, limit, 0, nil)  // a canceled probe only shortens the span
			span = max(2, probe.Kernel.Now())
		}
		h := fnv.New64a()
		json.NewEncoder(h).Encode(cfg)
		cut := 1 + adaptnoc.Cycle(sim.NewRNG(h.Sum64()).Intn(int(span)-1))
		if _, err := s.RunTo(ctx, cut, 0, nil); err != nil {
			return adaptnoc.Results{}, err
		}
		blob, err := s.Checkpoint()
		if err != nil {
			return adaptnoc.Results{}, err
		}
		r, err := adaptnoc.RestoreSim(blob)
		if err == nil {
			if again, cerr := r.Checkpoint(); cerr != nil || !bytes.Equal(blob, again) {
				err = fmt.Errorf("re-checkpoint of the restored sim differs (err %v)", cerr)
			}
		}
		if err != nil {
			err = fmt.Errorf("tripwire: %v at cycle %d: %w", cfg.Design, cut, err)
			t.Error(err)
			return adaptnoc.Results{}, err
		}
		if _, err := r.RunTo(ctx, limit, 0, nil); err != nil {
			return adaptnoc.Results{}, err
		}
		return r.Results(), nil
	}
}

// TestGoldenMixedTables locks the complete mixed-workload table output to
// testdata/golden_mixed.txt. The determinism test guarantees identical
// results across -parallel settings; this golden file additionally
// catches silent drift across code changes — a routing tweak or idle-skip
// regression that shifts any latency/energy/selection number fails here
// with a readable diff. Every simulation runs through restoreTripwire.
// Refresh intentionally with:
//
//	go test ./internal/exp -run TestGoldenMixedTables -update
func TestGoldenMixedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden mixed run is a full 14-simulation sweep")
	}
	o := goldenOptions()
	o.Eval = restoreTripwire(t, o)
	m, err := RunMixed(o, "bfs", "canneal", "ferret")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range []Table{m.Fig7(), m.Fig10(), m.Fig11(), m.Fig12(), m.Fig13()} {
		tab.Print(&buf)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "golden_mixed.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("mixed-workload tables drifted from %s.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, refresh with -update.",
			path, got, want)
	}
}
