package noc

import (
	"reflect"
	"testing"
)

// TestCarveRowBands pins the sharded tick's row→shard map: each shard owns
// a contiguous, full-width band of rows (band i covers rows
// [i*h/k, (i+1)*h/k), so heights differ by at most one and every row is
// covered once), a count past the row count clamps to one band per row,
// and a count below one is serial. An empty grid never reaches carve:
// NewNetwork panics on it first.
func TestCarveRowBands(t *testing.T) {
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
		{8, 8, 12, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{2, 5, 2, []int{2, 3}},
		{2, 5, 4, []int{1, 1, 1, 2}},
		{5, 3, 2, []int{1, 2}},
		{16, 16, 4, []int{4, 4, 4, 4}},
		{32, 32, 7, []int{4, 5, 4, 5, 4, 5, 5}},
	} {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height = tc.w, tc.h
		n := NewNetwork(cfg)
		n.SetShards(tc.k)
		n.carve()
		n.StopWorkers()
		var lens []int
		for y := 0; y < tc.h; y++ {
			s := n.routers[y*tc.w].shard
			for x := 1; x < tc.w; x++ {
				if got := n.routers[y*tc.w+x].shard; got != s {
					t.Fatalf("%dx%d, %d shards: row %d splits between shards %d and %d", tc.w, tc.h, tc.k, y, s, got)
				}
			}
			switch s {
			case len(lens) - 1:
				lens[s]++
			case len(lens):
				lens = append(lens, 1)
			default:
				t.Fatalf("%dx%d, %d shards: row %d in shard %d after band %d", tc.w, tc.h, tc.k, y, s, len(lens)-1)
			}
		}
		if !reflect.DeepEqual(lens, tc.wantLens) || n.Shards() != len(tc.wantLens) {
			t.Errorf("%dx%d, %d shards: %d bands of heights %v, want %v", tc.w, tc.h, tc.k, n.Shards(), lens, tc.wantLens)
		}
	}
	for _, wh := range [][2]int{{0, 8}, {8, 0}, {-1, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNetwork on an empty %dx%d grid did not panic", wh[0], wh[1])
				}
			}()
			cfg := DefaultConfig()
			cfg.Width, cfg.Height = wh[0], wh[1]
			NewNetwork(cfg)
		}()
	}
}
