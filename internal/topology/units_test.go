package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"adaptnoc/internal/noc"
)

func TestXYPortDirections(t *testing.T) {
	c := noc.Coord{X: 3, Y: 3}
	for _, tc := range []struct {
		dst  noc.Coord
		want int
	}{
		{noc.Coord{X: 5, Y: 3}, noc.PortEast},
		{noc.Coord{X: 0, Y: 7}, noc.PortWest}, // X first
		{noc.Coord{X: 3, Y: 5}, noc.PortSouth},
		{noc.Coord{X: 3, Y: 0}, noc.PortNorth},
		{noc.Coord{X: 3, Y: 3}, noc.PortLocal},
	} {
		if got := xyPort(c, tc.dst); got != tc.want {
			t.Errorf("xyPort(%v,%v) = %s, want %s", c, tc.dst, noc.DirPortName(got), noc.DirPortName(tc.want))
		}
	}
}

func TestRingHopMinimalAndWrapFlag(t *testing.T) {
	// Ring of 8 positions starting at 0, ports +=East, -=West.
	for _, tc := range []struct {
		cur, dst  int
		wantPort  int
		wantWraps bool
	}{
		{0, 3, noc.PortEast, false},
		{0, 5, noc.PortWest, true},  // wrap going minus from position 0
		{7, 1, noc.PortEast, true},  // wrap going plus from the end
		{2, 6, noc.PortEast, false}, // tie fwd=back -> no-wrap direction
		{6, 2, noc.PortWest, false},
	} {
		port, wraps := ringHop(tc.cur, tc.dst, 0, 8, noc.PortEast, noc.PortWest)
		if port != tc.wantPort || wraps != tc.wantWraps {
			t.Errorf("ringHop(%d->%d) = %s wraps=%v, want %s wraps=%v",
				tc.cur, tc.dst, noc.DirPortName(port), wraps,
				noc.DirPortName(tc.wantPort), tc.wantWraps)
		}
	}
	// Degenerate 2-rings never wrap.
	if _, wraps := ringHop(1, 0, 0, 2, noc.PortEast, noc.PortWest); wraps {
		t.Error("2-ring reported a wrap")
	}
}

func TestRingHopAlwaysProgresses(t *testing.T) {
	// Property: following ringHop repeatedly reaches the destination in at
	// most n/2 (+1) steps for any ring size 2..8.
	f := func(curU, dstU, nU uint8) bool {
		n := int(nU%7) + 2
		cur, dst := int(curU)%n, int(dstU)%n
		if cur == dst {
			return true
		}
		pos := cur
		for steps := 0; steps <= n; steps++ {
			if pos == dst {
				return steps <= n/2+1
			}
			port, _ := ringHop(pos, dst, 0, n, noc.PortEast, noc.PortWest)
			if port == noc.PortEast {
				pos = (pos + 1) % n
			} else {
				pos = (pos - 1 + n) % n
			}
			if n < 3 { // no wrap links on degenerate rings
				if pos < 0 || pos >= n {
					return false
				}
			}
		}
		return pos == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDimGrouping(t *testing.T) {
	for _, tc := range []struct {
		lo, n     int
		wantSpans []span
	}{
		{0, 4, []span{{0, 2}, {2, 2}}},
		{2, 5, []span{{2, 2}, {4, 2}, {6, 1}}},
		{0, 1, []span{{0, 1}}},
	} {
		got := splitDim(tc.lo, tc.n)
		if len(got) != len(tc.wantSpans) {
			t.Fatalf("splitDim(%d,%d) = %v", tc.lo, tc.n, got)
		}
		for i := range got {
			if got[i] != tc.wantSpans[i] {
				t.Fatalf("splitDim(%d,%d)[%d] = %v, want %v", tc.lo, tc.n, i, got[i], tc.wantSpans[i])
			}
		}
	}
}

// partitionRows is the sharded tick's banding of a w×h grid for a
// requested shard count, as regions: k is clamped to [1, h] as
// noc.Network.SetShards clamps it, and noc.RowBand places each band.
func partitionRows(w, h, k int) []Region {
	k = max(1, min(k, h))
	out := make([]Region, k)
	for i := range out {
		lo, hi := noc.RowBand(h, k, i)
		out[i] = Region{X: 0, Y: lo, W: w, H: hi - lo}
	}
	return out
}

// TestPartitionRowsEdgeWidths pins the degenerate shapes: single-row and
// single-column grids, non-positive shard counts (clamped to one band),
// shard counts past the row count (clamped to one band per row), and the
// empty-grid panic, which NewNetwork raises before any banding is done.
func TestPartitionRowsEdgeWidths(t *testing.T) {
	for _, tc := range []struct {
		w, h, k  int
		wantLens []int // band heights in order
	}{
		{1, 1, 1, []int{1}},
		{1, 1, 5, []int{1}},
		{1, 8, 3, []int{2, 3, 3}},
		{8, 1, 4, []int{1}},
		{3, 2, 2, []int{1, 1}},
		{8, 8, 0, []int{8}},
		{8, 8, -2, []int{8}},
		{2, 5, 2, []int{2, 3}},
		{2, 5, 4, []int{1, 1, 1, 2}},
		{2, 5, 5, []int{1, 1, 1, 1, 1}},
	} {
		regs := partitionRows(tc.w, tc.h, tc.k)
		if len(regs) != len(tc.wantLens) {
			t.Fatalf("partitionRows(%d,%d,%d) gave %d bands, want %d", tc.w, tc.h, tc.k, len(regs), len(tc.wantLens))
		}
		y := 0
		for i, r := range regs {
			if r.H != tc.wantLens[i] {
				t.Errorf("partitionRows(%d,%d,%d)[%d].H = %d, want %d", tc.w, tc.h, tc.k, i, r.H, tc.wantLens[i])
			}
			if r.X != 0 || r.W != tc.w || r.Y != y {
				t.Errorf("partitionRows(%d,%d,%d)[%d] = %v, want full-width band at Y=%d", tc.w, tc.h, tc.k, i, r, y)
			}
			y += r.H
		}
	}
	for _, tc := range [][2]int{{0, 8}, {8, 0}, {-1, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNetwork on an empty %dx%d grid did not panic", tc[0], tc[1])
				}
			}()
			cfg := noc.DefaultConfig()
			cfg.Width, cfg.Height = tc[0], tc[1]
			noc.NewNetwork(cfg)
		}()
	}
}

func TestPartitionRowsCoversAndBalances(t *testing.T) {
	for _, tc := range []struct{ w, h, k int }{
		{8, 8, 1}, {8, 8, 2}, {8, 8, 3}, {8, 8, 8}, {8, 8, 12},
		{16, 16, 4}, {32, 32, 7}, {5, 3, 2},
	} {
		regs := partitionRows(tc.w, tc.h, tc.k)
		wantK := tc.k
		if wantK > tc.h {
			wantK = tc.h
		}
		if len(regs) != wantK {
			t.Fatalf("partitionRows(%d,%d,%d) gave %d regions, want %d", tc.w, tc.h, tc.k, len(regs), wantK)
		}
		nextY, minH, maxH := 0, tc.h, 0
		for _, r := range regs {
			if r.X != 0 || r.W != tc.w {
				t.Fatalf("region %v is not a full-width band", r)
			}
			if r.Y != nextY {
				t.Fatalf("region %v leaves a gap: want Y=%d", r, nextY)
			}
			nextY += r.H
			if r.H < minH {
				minH = r.H
			}
			if r.H > maxH {
				maxH = r.H
			}
		}
		if nextY != tc.h {
			t.Fatalf("bands cover %d of %d rows", nextY, tc.h)
		}
		if maxH-minH > 1 {
			t.Fatalf("band heights range %d..%d, want spread <= 1", minH, maxH)
		}
	}
}

// TestPartitionRowsMatchesNetworkBanding pins the agreement between the
// band regions and a built mesh network: the network keeps one shard per
// band, and every router lies in exactly one band. Which shard the carve
// gives each router is checked inside noc (TestCarveRowBands).
func TestPartitionRowsMatchesNetworkBanding(t *testing.T) {
	cfg := noc.DefaultConfig()
	for _, k := range []int{-1, 0, 1, 2, 3, 5, 8, 12} {
		net := noc.NewNetwork(cfg)
		BuildMesh(net)
		net.SetShards(k)
		regs := partitionRows(cfg.Width, cfg.Height, k)
		if net.Shards() != len(regs) {
			t.Fatalf("shards=%d: network keeps %d shards, banding has %d bands", k, net.Shards(), len(regs))
		}
		for _, id := range WholeChip(cfg).Tiles(cfg.Width) {
			c := noc.CoordOf(id, cfg.Width)
			in := 0
			for _, r := range regs {
				if r.Contains(c) {
					in++
				}
			}
			if in != 1 {
				t.Fatalf("shards=%d router %d at %v lies in %d bands, want 1", k, id, c, in)
			}
		}
		net.StopWorkers()
	}
}

func TestTreeStructureProperties(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	reg := Region{W: 4, H: 8}
	root := noc.Coord{X: 2, Y: 4}
	for _, tile := range reg.Tiles(cfg.Width) {
		EnsureAdaptPorts(net.Router(tile))
	}
	WireMeshRegion(net, reg)
	AttachOneToOne(net, reg)
	tr := buildTree(net, reg, root, false)

	// Spanning: every region tile is in the root's subtree.
	rootSet := tr.subtree[tr.root]
	for _, tile := range reg.Tiles(cfg.Width) {
		if !rootSet[tile] {
			t.Fatalf("tile %d not spanned by the tree", tile)
		}
	}
	if len(rootSet) != reg.Size() {
		t.Fatalf("tree spans %d tiles, want %d", len(rootSet), reg.Size())
	}
	// Each non-root node has exactly one parent (tree property): count
	// child references.
	parents := map[noc.NodeID]int{}
	for _, edges := range tr.children {
		for _, e := range edges {
			parents[e.child]++
		}
	}
	for _, tile := range reg.Tiles(cfg.Width) {
		want := 1
		if tile == tr.root {
			want = 0
		}
		if parents[tile] != want {
			t.Fatalf("tile %d has %d parents, want %d", tile, parents[tile], want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Mesh: "mesh", CMesh: "cmesh", Torus: "torus", Tree: "tree", TorusTree: "torus+tree",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}

func TestRegionOps(t *testing.T) {
	r := Region{X: 2, Y: 2, W: 3, H: 2}
	if r.Size() != 6 {
		t.Fatalf("Size = %d", r.Size())
	}
	if !r.Contains(noc.Coord{X: 4, Y: 3}) || r.Contains(noc.Coord{X: 5, Y: 2}) {
		t.Fatal("Contains boundary wrong")
	}
	if !r.Overlaps(Region{X: 4, Y: 3, W: 2, H: 2}) {
		t.Fatal("Overlaps false negative")
	}
	if r.Overlaps(Region{X: 5, Y: 2, W: 1, H: 1}) {
		t.Fatal("Overlaps false positive")
	}
	tiles := r.Tiles(8)
	if len(tiles) != 6 || tiles[0] != 18 || tiles[5] != 28 {
		t.Fatalf("Tiles = %v", tiles)
	}
}
