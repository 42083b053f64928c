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

// TestTraceReplaySetupAllocs is the set-up contract of trace replay:
// NewSim decodes each distinct recording once, however many specs replay
// it and whether they share the blob or — as after a JSON round trip —
// each hold an equal copy, so set-up costs about one DecodeTrace. The
// decoded nodes hold no pointers, so the collector never scans them.
func TestTraceReplaySetupAllocs(t *testing.T) {
	node := reflect.TypeOf(adaptnoc.TraceApp{}.Nodes).Elem()
	for i := 0; i < node.NumField(); i++ {
		switch f := node.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s.%s is a %s: node arrays must stay pointer-free", node, f.Name, f.Type)
		}
	}

	const maxRatio = 1.5
	blob := recordMixedTrace(t, 20_000)
	shared, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) < 3 {
		t.Fatalf("recording has %d apps, want the mixed workload's 3", len(shared))
	}
	copies := append([]adaptnoc.AppSpec(nil), shared...)
	for i := range copies {
		copies[i].TraceData = bytes.Clone(blob)
	}
	decode := bytesAllocated(func() {
		if _, err := adaptnoc.DecodeTrace(blob); err != nil {
			t.Fatal(err)
		}
	})
	for _, c := range []struct {
		name string
		apps []adaptnoc.AppSpec
	}{{"shared blob", shared}, {"equal copies", copies}} {
		cfg := adaptnoc.Config{Design: adaptnoc.DesignBaseline, Width: w, Height: h, Apps: c.apps, Seed: 1}
		setup := bytesAllocated(func() {
			if _, err := adaptnoc.NewSim(cfg); err != nil {
				t.Fatal(err)
			}
		})
		ratio := float64(setup) / float64(decode)
		t.Logf("%s: NewSim allocates %d B, %.2fx one %d B decode", c.name, setup, ratio, decode)
		if ratio > maxRatio {
			t.Errorf("%s: NewSim allocates %.2fx one DecodeTrace, want <= %.1fx", c.name, ratio, maxRatio)
		}
	}
}
