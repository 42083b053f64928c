package traffic

import (
	"testing"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
)

func inRegion(c noc.Coord, x, y, w, h int) bool {
	return c.X >= x && c.X < x+w && c.Y >= y && c.Y < y+h
}

func TestUniformStaysInRegionAndAvoidsSelf(t *testing.T) {
	rng := sim.NewRNG(1)
	u := NewUniform(2, 2, 4, 4)
	src := noc.Coord{X: 3, Y: 3}
	for i := 0; i < 2000; i++ {
		d, ok := u.Dst(src, rng)
		if !ok {
			continue
		}
		if d == src {
			t.Fatal("uniform returned the source")
		}
		if !inRegion(d, 2, 2, 4, 4) {
			t.Fatalf("destination %v outside region", d)
		}
	}
}

func TestOpenLoopSourceRate(t *testing.T) {
	cfg := noc.DefaultConfig()
	net := noc.NewNetwork(cfg)
	// No topology needed: just count enqueues into NI queues.
	src := &OpenLoopSource{
		Net: net, Pat: NewUniform(0, 0, 4, 4),
		Tiles: []noc.NodeID{0, 1, 2, 3}, Rate: 0.25, DataPct: 0.5,
		RNG: sim.NewRNG(9),
	}
	const cycles = 20000
	for c := 0; c < cycles; c++ {
		src.Tick(sim.Cycle(c))
	}
	want := 0.25 * 4 * cycles
	if got := float64(src.Injected); got < 0.9*want || got > 1.1*want {
		t.Fatalf("injected %v, want ~%v", got, want)
	}
	if net.PendingPackets() != int(src.Injected) {
		t.Fatalf("pending %d != injected %d", net.PendingPackets(), src.Injected)
	}
}
