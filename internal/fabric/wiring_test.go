package fabric

import (
	"fmt"
	"sort"

	"adaptnoc/internal/noc"
)

// CheckWiring verifies the adaptable-link wiring discipline of
// Section II-A.2 on the network's current channel set: each row and each
// column owns exactly one bidirectional adaptable link (a forward wire and
// a reverse wire, each segmentable by the quad-state repeaters), so all
// adaptable channels riding one wire must occupy disjoint intervals
// (shared endpoints are allowed — that is a switched-off repeater, as in
// Fig. 3(b)).
//
// Convention: a row segment travelling +x rides the row's forward wire and
// one travelling −x rides the reverse wire (a reversed link in the paper's
// terms); columns likewise with +y/−y.
func CheckWiring(net *noc.Network) error {
	type wire struct {
		horizontal   bool
		index        int // row (y) or column (x)
		reverse      bool
		intermediate bool // metal layer (each layer has its own wires)
	}
	segs := make(map[wire][][2]int)

	for _, ch := range net.Channels() {
		if ch.Kind != noc.ChanAdaptable {
			continue
		}
		if ch.From.Kind != noc.EndRouter || ch.To.Kind != noc.EndRouter {
			return fmt.Errorf("fabric: adaptable channel with NI endpoint: %v->%v", ch.From, ch.To)
		}
		a := noc.CoordOf(ch.From.Router, net.Cfg.Width)
		b := noc.CoordOf(ch.To.Router, net.Cfg.Width)
		var w wire
		var lo, hi int
		switch {
		case a.Y == b.Y && a.X != b.X:
			w = wire{horizontal: true, index: a.Y, reverse: b.X < a.X, intermediate: ch.Intermediate}
			lo, hi = min(a.X, b.X), max(a.X, b.X)
		case a.X == b.X && a.Y != b.Y:
			w = wire{horizontal: false, index: a.X, reverse: b.Y < a.Y, intermediate: ch.Intermediate}
			lo, hi = min(a.Y, b.Y), max(a.Y, b.Y)
		default:
			return fmt.Errorf("fabric: adaptable channel not axis-aligned: %v->%v", ch.From, ch.To)
		}
		segs[w] = append(segs[w], [2]int{lo, hi})
	}

	for w, list := range segs {
		sort.Slice(list, func(i, j int) bool { return list[i][0] < list[j][0] })
		for i := 1; i < len(list); i++ {
			if list[i][0] < list[i-1][1] {
				axis, rev := "row", "fwd"
				if !w.horizontal {
					axis = "col"
				}
				if w.reverse {
					rev = "rev"
				}
				return fmt.Errorf("fabric: overlapping adaptable segments on %s %d (%s wire): [%d,%d] and [%d,%d]",
					axis, w.index, rev, list[i-1][0], list[i-1][1], list[i][0], list[i][1])
			}
		}
	}
	return nil
}
