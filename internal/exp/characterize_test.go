package exp

import (
	"os"
	"testing"

	"adaptnoc/internal/topology"
)

func TestCharacterizeTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := CharacterizeTopologies(20000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab.Print(os.Stderr)
	if len(tab.Rows) != 6 || len(tab.Columns) != 6 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
}

func TestLatencyThroughputMonotoneAtLowLoad(t *testing.T) {
	reg := topology.Region{W: 4, H: 4}
	var pts []LatThroughputPoint
	for i, rate := range []float64{0.005, 0.02, 0.6} {
		pt, err := latThroughputPoint(topology.Mesh, reg, rate, 20000, 3+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	if pts[0].Latency <= 0 {
		t.Fatal("no latency at low load")
	}
	if pts[0].Saturated {
		t.Fatal("saturated at 0.005 pkts/node/cycle")
	}
	if !pts[2].Saturated {
		t.Fatalf("not saturated at 0.6 pkts/node/cycle: %+v", pts[2])
	}
	if pts[2].Latency <= pts[0].Latency {
		t.Fatal("latency not increasing with load")
	}
}

func TestCMeshSaturatesBeforeMesh(t *testing.T) {
	reg := topology.Region{W: 4, H: 4}
	mesh, err := latThroughputPoint(topology.Mesh, reg, 0.12, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cmesh, err := latThroughputPoint(topology.CMesh, reg, 0.12, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The concentration mux quarters per-node injection bandwidth: at a
	// rate the mesh still absorbs, cmesh must already be saturated.
	if mesh.Saturated {
		t.Fatalf("mesh unexpectedly saturated: %+v", mesh)
	}
	if !cmesh.Saturated {
		t.Fatalf("cmesh not saturated at 0.12: %+v", cmesh)
	}
}
