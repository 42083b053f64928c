package adaptnoc

import "testing"

func TestParseAppSpecs(t *testing.T) {
	t.Parallel()
	apps, err := ParseAppSpecs("bfs:0,0,4,8:tree; canneal:4,0,4,4:cmesh; ferret:4,4,4,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 3 {
		t.Fatalf("%d apps", len(apps))
	}
	if apps[0].Static != Tree || apps[1].Static != CMesh || apps[2].Static != Mesh {
		t.Fatalf("statics wrong: %v %v %v", apps[0].Static, apps[1].Static, apps[2].Static)
	}
	if apps[0].Region != (Region{X: 0, Y: 0, W: 4, H: 8}) {
		t.Fatalf("region %v", apps[0].Region)
	}
	if len(apps[0].MCTiles) != 4 {
		t.Fatalf("GPU region got %d MCs, want 4", len(apps[0].MCTiles))
	}
	// The parsed specs must build a working sim.
	if _, err := NewSim(Config{Design: DesignAdaptNoRL, Apps: apps, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestParseAppSpecsErrors(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{
		"",
		"unknownapp:0,0,4,4",
		"bfs:0,0,4",
		"bfs:0,0,x,4",
		"bfs:0,0,4,4:warp",
		"bfs:0,0,0,4",
		"bfs",
		"bfs:0,0,4,4:tree:extra",
	} {
		if _, err := ParseAppSpecs(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseKindAndDesign(t *testing.T) {
	t.Parallel()
	for _, k := range []Kind{Mesh, CMesh, Torus, Tree, TorusTree} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%v) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("hypercube"); err == nil {
		t.Error("unknown kind accepted")
	}
	for d := DesignBaseline; d < NumDesigns; d++ {
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDesign(%v) = %v, %v", d, got, err)
		}
	}
	if _, err := ParseDesign("hypothetical"); err == nil {
		t.Error("unknown design accepted")
	}
}
