package adaptnoc_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"adaptnoc"
)

// runToSim builds the mixed workload on the baseline mesh; budget > 0
// makes the config finite.
func runToSim(t *testing.T, budget int64) *adaptnoc.Sim {
	t.Helper()
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignBaseline, Apps: adaptnoc.DefaultMixed(budget), Seed: 1, EpochCycles: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunTo pins the one run loop: where it cuts slices, when it calls
// back, where a finite config stops, and that errors come back unchanged.
func TestRunTo(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	// runTo runs s to limit and returns the clock at each callback.
	runTo := func(t *testing.T, s *adaptnoc.Sim, limit, every adaptnoc.Cycle) []adaptnoc.Cycle {
		t.Helper()
		var calls []adaptnoc.Cycle
		finished, err := s.RunTo(ctx, limit, every, func() error {
			calls = append(calls, s.Kernel.Now())
			return nil
		})
		if err != nil || !finished {
			t.Fatalf("RunTo(%d, %d) = %v, %v; a window run has no app to wait for", limit, every, finished, err)
		}
		return calls
	}

	t.Run("slices", func(t *testing.T) {
		if got, want := runTo(t, runToSim(t, 0), 10, 4), []adaptnoc.Cycle{4, 8, 10}; !slices.Equal(got, want) {
			t.Fatalf("callbacks at %v, want %v", got, want)
		}
	})

	t.Run("single_slice", func(t *testing.T) {
		for _, every := range []adaptnoc.Cycle{0, -5, 10, 100} {
			if got := runTo(t, runToSim(t, 0), 10, every); !slices.Equal(got, []adaptnoc.Cycle{10}) {
				t.Fatalf("every %d: callbacks at %v, want one at 10", every, got)
			}
		}
	})

	t.Run("absolute_limit", func(t *testing.T) {
		s := runToSim(t, 0)
		s.Run(3)
		if got, want := runTo(t, s, 10, 4), []adaptnoc.Cycle{7, 10}; !slices.Equal(got, want) {
			t.Fatalf("from cycle 3: callbacks at %v, want %v", got, want)
		}
		if got := runTo(t, s, 10, 4); len(got) != 0 {
			t.Fatalf("at the limit: callbacks at %v, want none", got)
		}
	})

	t.Run("finite_stops_early", func(t *testing.T) {
		// The budget finishes a few slices in, mid-slice.
		const budget, limit, every = 3000, 1_000_000, 1000
		ref := runToSim(t, budget)
		if !ref.RunUntilFinished(limit) {
			t.Fatal("reference run did not finish")
		}
		stop := ref.Kernel.Now()

		s := runToSim(t, budget)
		var calls []adaptnoc.Cycle
		finished, err := s.RunTo(ctx, limit, every, func() error {
			calls = append(calls, s.Kernel.Now())
			return nil
		})
		if err != nil || !finished {
			t.Fatalf("RunTo = %v, %v", finished, err)
		}
		if n := len(calls); n != int((stop+every-1)/every) || calls[n-1] != stop {
			t.Fatalf("callbacks at %v; want one per %d cycles, the last at the finish cycle %d", calls, every, stop)
		}
		if got, want := resultsJSON(t, s.Results()), resultsJSON(t, ref.Results()); !bytes.Equal(got, want) {
			t.Fatalf("sliced run differs from RunUntilFinished:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("propagates_errors", func(t *testing.T) {
		s := runToSim(t, 0)
		saveErr := errors.New("save failed")
		calls := 0
		_, err := s.RunTo(ctx, 10, 4, func() error { calls++; return saveErr })
		if err != saveErr || calls != 1 || s.Kernel.Now() != 4 {
			t.Fatalf("after error: err %v after %d callbacks at cycle %d; want it unchanged after the first slice", err, calls, s.Kernel.Now())
		}

		canceled, cancel := context.WithCancel(ctx)
		cancel()
		for _, budget := range []int64{0, 300} {
			s := runToSim(t, budget)
			_, err := s.RunTo(canceled, 10, 4, func() error { t.Fatal("callback after a context error"); return nil })
			if err != context.Canceled || s.Kernel.Now() != 0 {
				t.Fatalf("budget %d: err %v at cycle %d; want context.Canceled at cycle 0", budget, err, s.Kernel.Now())
			}
		}
	})
}
