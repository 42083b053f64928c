package adaptnoc_test

import (
	"runtime"
	"testing"

	"adaptnoc"
)

// TestSteadyStateSimAllocs is the allocation contract of the whole closed
// loop, one level above noc's TestSteadyStateTickZeroAllocs: once a
// simulation has warmed past its high-water marks, the cores, memory
// hierarchy, kernel and network run off recycled memory — retired
// transactions from the machine's freelist, packets and flit slabs from
// the network's arena, and payloads carried by value. The budget leaves
// room for the last few high-water regrowths, not for a per-event
// allocation (one per memory transaction is thousands per kcycle).
//
// MemStats.Mallocs is process-wide, so the test must not run in parallel
// with other tests.
func TestSteadyStateSimAllocs(t *testing.T) {
	const warm, window = 30_000, 20_000
	const maxPerKcycle = 10
	replay := func() adaptnoc.Config {
		// Recorded long enough that the replay is still injecting when the
		// window closes.
		apps, w, h, err := adaptnoc.TraceWorkload(recordMixedTrace(t, 2*(warm+window)))
		if err != nil {
			t.Fatal(err)
		}
		return adaptnoc.Config{Design: adaptnoc.DesignBaseline, Width: w, Height: h, Apps: apps, Seed: 1}
	}
	for _, c := range []struct {
		name string
		cfg  func() adaptnoc.Config
	}{
		{"baseline", func() adaptnoc.Config {
			return adaptnoc.Config{Design: adaptnoc.DesignBaseline, Apps: adaptnoc.DefaultMixed(0), Seed: 1}
		}},
		{"adapt-noc", func() adaptnoc.Config {
			return adaptnoc.Config{Design: adaptnoc.DesignAdaptNoC, Apps: adaptnoc.DefaultMixed(0), Seed: 1}
		}},
		{"trace-replay", replay},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := adaptnoc.NewSim(c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			s.Run(warm)
			delivered := s.Net.TotalDelivered
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Run(window)
			runtime.ReadMemStats(&after)
			if s.Net.TotalDelivered-delivered < window {
				t.Fatalf("only %d deliveries in the %d-cycle window: measured an idle chip",
					s.Net.TotalDelivered-delivered, window)
			}
			perK := float64(after.Mallocs-before.Mallocs) / (window / 1000)
			t.Logf("%s: %.1f allocations per kcycle", c.name, perK)
			if perK > maxPerKcycle {
				t.Errorf("%s: steady state allocates %.1f times per kcycle, want <= %d",
					c.name, perK, maxPerKcycle)
			}
		})
	}
}
