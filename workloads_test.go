package adaptnoc

import (
	"testing"
	"testing/quick"

	"adaptnoc/internal/noc"
)

func TestBlockMCsProvisioning(t *testing.T) {
	t.Parallel()
	// One MC per 2x4 block (Section II-C.2).
	for _, tc := range []struct {
		reg  Region
		want int
	}{
		{Region{W: 2, H: 4}, 1},
		{Region{W: 4, H: 4}, 2},
		{Region{W: 4, H: 8}, 4},
		{Region{W: 8, H: 8}, 8},
	} {
		if got := len(BlockMCs(tc.reg)); got != tc.want {
			t.Errorf("BlockMCs(%v) = %d MCs, want %d", tc.reg, got, tc.want)
		}
	}
}

func TestBlockMCsInsideRegion(t *testing.T) {
	t.Parallel()
	f := func(x, y, w, h uint8) bool {
		reg := Region{X: int(x % 7), Y: int(y % 7), W: int(w%4) + 1, H: int(h%4) + 1}
		if reg.X+reg.W > 8 || reg.Y+reg.H > 8 {
			return true
		}
		for _, mc := range BlockMCs(reg) {
			if !reg.Contains(noc.CoordOf(mc, 8)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixedWorkloadShape(t *testing.T) {
	t.Parallel()
	apps := MixedWorkload("bfs", "canneal", "ferret", 1000)
	if len(apps) != 3 {
		t.Fatalf("%d apps", len(apps))
	}
	if apps[0].Region.Size() != 32 || apps[1].Region.Size() != 16 || apps[2].Region.Size() != 16 {
		t.Fatal("region sizes wrong")
	}
	total := 0
	for i, a := range apps {
		total += a.Region.Size()
		if a.InstrBudget != 1000 {
			t.Errorf("app %d budget %d", i, a.InstrBudget)
		}
		for j := i + 1; j < len(apps); j++ {
			if a.Region.Overlaps(apps[j].Region) {
				t.Errorf("apps %d and %d overlap", i, j)
			}
		}
	}
	if total != 64 {
		t.Fatalf("workload covers %d of 64 tiles", total)
	}
}

func TestCentralMCMinimizesDistance(t *testing.T) {
	t.Parallel()
	reg := Region{W: 4, H: 8}
	spec := AppSpec{Region: reg, MCTiles: BlockMCs(reg)}
	mc := centralMC(spec, 8)
	c := noc.CoordOf(mc, 8)
	// The most central of (0,0),(2,0),(0,4),(2,4) for a 4x8 region is
	// (2,4) — nearest the geometric centre (1.5, 3.5).
	if c.X != 2 || c.Y != 4 {
		t.Fatalf("centralMC = %v", c)
	}
}

func TestLoadPolicyRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := LoadPolicy([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if p := DefaultPolicy(); p == nil {
		t.Fatal("no embedded policy in this build")
	}
}
