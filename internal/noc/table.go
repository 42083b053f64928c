package noc

import "fmt"

// ClassOp says how a hop changes the packet's dateline VC class. Crossing a
// torus wraparound sets class 1; turning into a new dimension resets to
// class 0 (each ring's dependency cycle is broken independently under
// dimension-ordered routing).
type ClassOp int8

// Class operations.
const (
	ClassKeep ClassOp = iota
	ClassSet1
	ClassSet0
)

// RouteEntry is one routing-table row: the output port toward a destination
// and the dateline class operation this hop applies (Section II-C.3).
type RouteEntry struct {
	OutPort int8
	Class   ClassOp
	Valid   bool
}

// RoutingTable maps destination NodeIDs to route entries for one virtual
// network at one router. Tables are immutable after construction so that
// the reconfiguration protocol can swap them atomically by pointer; the
// adaptable router's "reconfigurable routing table" (Section II-A.1) is a
// pointer swap gated by the Ts setup delay.
type RoutingTable struct {
	entries []RouteEntry
}

// NewRoutingTable returns an empty (all-invalid) table for n destinations.
func NewRoutingTable(n int) *RoutingTable {
	return &RoutingTable{entries: make([]RouteEntry, n)}
}

// Set installs the route toward dst.
func (t *RoutingTable) Set(dst NodeID, outPort int, op ClassOp) {
	t.entries[dst] = RouteEntry{OutPort: int8(outPort), Class: op, Valid: true}
}

// Unset removes the route toward dst (used when a memory-controller share
// is torn down).
func (t *RoutingTable) Unset(dst NodeID) {
	if int(dst) < len(t.entries) {
		t.entries[dst] = RouteEntry{}
	}
}

// Lookup returns the route toward dst. ok is false if the table has no
// route (a misrouted packet — always a bug in topology construction).
func (t *RoutingTable) Lookup(dst NodeID) (RouteEntry, bool) {
	if int(dst) >= len(t.entries) {
		return RouteEntry{}, false
	}
	e := t.entries[dst]
	return e, e.Valid
}

// Clone returns a mutable copy.
func (t *RoutingTable) Clone() *RoutingTable {
	cp := make([]RouteEntry, len(t.entries))
	copy(cp, t.entries)
	return &RoutingTable{entries: cp}
}

// String summarizes the table for diagnostics.
func (t *RoutingTable) String() string {
	n := 0
	for _, e := range t.entries {
		if e.Valid {
			n++
		}
	}
	return fmt.Sprintf("routes(%d/%d)", n, len(t.entries))
}
