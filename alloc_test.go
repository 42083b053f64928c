package adaptnoc_test

import (
	"bytes"
	"reflect"
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
	// Not parallel: MemStats.Mallocs counts every goroutine's mallocs.
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

// bytesAllocated reports the heap bytes f allocates (MemStats.TotalAlloc
// is process-wide, so callers must not run in parallel with other tests).
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTraceReplaySetupAllocs is the set-up contract of trace replay: a
// recording is decoded once per set-up. NewSim decodes each distinct
// recording once, however many specs replay it and whether they share the
// blob or — as after a JSON round trip — each hold an equal copy.
// TraceWorkload's specs carry its decode into NewSim, and RestoreSim
// shares one decode between Validate and NewSim. The decoded nodes hold no
// pointers, so the collector never scans them.
func TestTraceReplaySetupAllocs(t *testing.T) {
	// Not parallel: MemStats.TotalAlloc counts every goroutine's allocations.
	node := reflect.TypeOf(adaptnoc.TraceApp{}.Nodes).Elem()
	for i := 0; i < node.NumField(); i++ {
		switch f := node.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s.%s is a %s: node arrays must stay pointer-free", node, f.Name, f.Type)
		}
	}

	blob := recordMixedTrace(t, 20_000)
	carried, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(carried) < 3 {
		t.Fatalf("recording has %d apps, want the mixed workload's 3", len(carried))
	}
	// bare rebuilds the specs from their exported fields only, as a
	// caller or a JSON decoder writes them: they carry no decode.
	bare := func(data func() []byte) []adaptnoc.AppSpec {
		var specs []adaptnoc.AppSpec
		for _, a := range carried {
			specs = append(specs, adaptnoc.AppSpec{
				Region: a.Region, MCTiles: a.MCTiles, TraceData: data(), TraceApp: a.TraceApp,
			})
		}
		return specs
	}
	config := func(apps []adaptnoc.AppSpec) adaptnoc.Config {
		return adaptnoc.Config{Design: adaptnoc.DesignBaseline, Width: w, Height: h, Apps: apps, Seed: 1}
	}
	newSim := func(apps []adaptnoc.AppSpec) func() {
		return func() {
			if _, err := adaptnoc.NewSim(config(apps)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := adaptnoc.NewSim(config(carried))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	decode := bytesAllocated(func() {
		if _, err := adaptnoc.DecodeTrace(blob); err != nil {
			t.Fatal(err)
		}
	})
	for _, c := range []struct {
		name     string
		setup    func()
		maxRatio float64
	}{
		{"NewSim, shared blob", newSim(bare(func() []byte { return blob })), 1.5},
		{"NewSim, equal copies", newSim(bare(func() []byte { return bytes.Clone(blob) })), 1.5},
		{"TraceWorkload + NewSim", func() {
			specs, _, _, err := adaptnoc.TraceWorkload(blob)
			if err != nil {
				t.Fatal(err)
			}
			newSim(specs)()
		}, 1.4},
		{"RestoreSim", func() {
			if _, err := adaptnoc.RestoreSim(ckpt); err != nil {
				t.Fatal(err)
			}
		}, 2.5},
	} {
		setup := bytesAllocated(c.setup)
		ratio := float64(setup) / float64(decode)
		t.Logf("%s: allocates %d B, %.2fx one %d B decode", c.name, setup, ratio, decode)
		if ratio > c.maxRatio {
			t.Errorf("%s: allocates %.2fx one DecodeTrace, want <= %.1fx", c.name, ratio, c.maxRatio)
		}
	}
}
