package adaptnoc

import (
	"encoding/json"
	"reflect"
	"testing"

	"adaptnoc/internal/fault"
)

// FuzzParseAppSpecs hammers the workload-spec parser: it must reject or
// accept any input without panicking, and anything it accepts must survive
// a re-parse of its own canonical rendering (region and profile intact).
func FuzzParseAppSpecs(f *testing.F) {
	f.Add("bfs:0,0,4,8:tree; canneal:4,0,4,4:cmesh; ferret:4,4,4,4")
	f.Add("bodytrack:0,0,8,8")
	f.Add("bfs:0,0,4,8:torus+tree")
	f.Add("bfs:1,2,3,4:mesh;")
	f.Add(";;;")
	f.Add("bfs:0,0,-1,8")
	f.Add("bfs:0,0,4")
	f.Add("nosuch:0,0,4,8")
	f.Add("bfs:a,b,c,d")
	f.Add("bfs:0,0,4,8:nosuchtopo")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseAppSpecs(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("ParseAppSpecs(%q) accepted but returned no specs", s)
		}
		for _, sp := range specs {
			if sp.Region.W <= 0 || sp.Region.H <= 0 {
				t.Fatalf("ParseAppSpecs(%q) accepted empty region %v", s, sp.Region)
			}
			if sp.Profile == "" {
				t.Fatalf("ParseAppSpecs(%q) accepted empty profile", s)
			}
		}
	})
}

// FuzzParseKind checks the topology-name parser never panics and only
// accepts names that render back to themselves.
func FuzzParseKind(f *testing.F) {
	for _, s := range []string{"mesh", "cmesh", "torus", "tree", "torus+tree", "MESH", "", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKind(s)
		if err == nil && k.String() != s {
			t.Fatalf("ParseKind(%q) = %v which renders %q", s, k, k.String())
		}
	})
}

// FuzzParseDesign likewise for design-point names.
func FuzzParseDesign(f *testing.F) {
	for _, s := range []string{"baseline", "oscar", "shortcut", "ftby", "ftby-pg", "adapt-norl", "adapt-noc", "", "ADAPT"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDesign(s)
		if err == nil && d.String() != s {
			t.Fatalf("ParseDesign(%q) = %v which renders %q", s, d, d.String())
		}
	})
}

// FuzzParseFaultSchedule hammers the fault-schedule JSON decoder: hostile
// input must error, never panic, and never allocate beyond the decoder's
// input-size cap; any schedule it accepts must hold only Check-valid
// events and survive a marshal -> re-parse round trip unchanged.
func FuzzParseFaultSchedule(f *testing.F) {
	f.Add(`[{"cycle": 100, "kind": "link", "router": 3, "port": 2}]`)
	f.Add(`[{"cycle": 200, "kind": "router", "router": 9}, {"cycle": 300, "kind": "vc", "router": 1, "port": 4, "vc": 2, "repair": 500}]`)
	f.Add(`[]`)
	f.Add(`[{"cycle": 0, "router": 0, "port": 1}]`)
	f.Add(`[{"cycle": 1, "kind": "cosmic", "router": 0}]`)
	f.Add(`[{"cycle": 1, "router": 0, "port": 1, "laser": true}]`)
	f.Add(`[{"cycle": 1e99, "router": 0, "port": 1}]`)
	f.Add(`{"cycle": 1}`)
	f.Add(`[] []`)
	f.Add(`[{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, s string) {
		events, err := fault.ParseSchedule([]byte(s))
		if err != nil {
			return
		}
		if len(events) > fault.MaxEvents {
			t.Fatalf("accepted %d events past the %d cap", len(events), fault.MaxEvents)
		}
		for i, ev := range events {
			if ce := ev.Check(0); ce != nil {
				t.Fatalf("accepted invalid events[%d] = %v: %v", i, ev, ce)
			}
		}
		b, err := json.Marshal(events)
		if err != nil {
			t.Fatalf("accepted schedule fails to marshal: %v", err)
		}
		again, err := fault.ParseSchedule(b)
		if err != nil {
			t.Fatalf("re-parse of accepted schedule failed: %v", err)
		}
		if len(events) > 0 && !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed the schedule:\n got %+v\nwant %+v", again, events)
		}
	})
}

// TestResultsStringPinned pins the human-readable table byte for byte on a
// handcrafted Results: the Adapt-only kind/reconf/sel suffix, a drop=
// field, an exec= field, and an unfinished app that shows none.
func TestResultsStringPinned(t *testing.T) {
	t.Parallel()
	var r Results
	r.Design = DesignAdaptNoC
	r.Cycles = 40000
	r.Apps = []AppResult{
		{
			Profile: "bfs", Region: Region{X: 0, Y: 0, W: 4, H: 8},
			AvgTotalLatency: 35.25, AvgNetLatency: 30.125, AvgQueueLatency: 5.125,
			AvgHops: 4.52, DeliveredPackets: 1234, ExecTime: -1,
			FinalKind: Tree, Reconfigs: 2,
		},
		{
			Profile: "canneal", Region: Region{X: 4, Y: 0, W: 4, H: 4},
			AvgTotalLatency: 20, AvgNetLatency: 18, AvgQueueLatency: 2,
			AvgHops: 3.1, DeliveredPackets: 999, DroppedPackets: 37, ExecTime: 48000,
			FinalKind: CMesh, Reconfigs: 3,
		},
	}
	r.Apps[0].Selections[int(Mesh)] = 0.25
	r.Apps[0].Selections[int(Tree)] = 0.75
	r.Apps[1].Selections[int(CMesh)] = 1

	want := "design=adapt-noc cycles=40000 energy=0.00uJ (dyn 0.00, static 0.00)\n" +
		"  bfs            4x8@(0,0) lat=35.2 (net 30.1 + queue 5.1) hops=4.52 pkts=1234" +
		" kind=tree reconf=2 sel=[mesh:25% cmesh:0% torus:0% tree:75%]\n" +
		"  canneal        4x4@(4,0) lat=20.0 (net 18.0 + queue 2.0) hops=3.10 pkts=999" +
		" drop=37 exec=48000 kind=cmesh reconf=3 sel=[mesh:0% cmesh:100% torus:0% tree:0%]\n"
	if got := r.String(); got != want {
		t.Fatalf("Results.String:\n got %q\nwant %q", got, want)
	}
}
