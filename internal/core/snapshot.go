package core

// Checkpoint support. The controller's dynamic state is the epoch counter
// and each binding's learning context (previous state/action, selection
// histogram, trace, reward and energy accumulators), then the policy's own
// state (DQN weights, Q table) through the Policy-specific agents. Bindings
// are serialized in Bind order, which is construction order and therefore
// stable.

import (
	"sort"

	"adaptnoc/internal/snap"
	"adaptnoc/internal/topology"
)

// Part-mark kinds inside the control section (delta alignment only,
// never serialized; see snap.Part). Kinds 16+ are reserved for the rl
// package, which writes into the same section.
const (
	partCtlHeader = iota
	partCtlBinding
	partCtlTrace
	partCtlPolicy
)

// SnapState is the controller's dynamic state followed by the agent
// state behind every binding's policy. Decoding overlays it onto a
// controller with the same bindings (same subNoCs bound in the same
// order) and policies of the same kinds.
func (ctl *Controller) SnapState(c *snap.Codec) {
	c.Mark(snap.PartKey(partCtlHeader, 0))
	c.Int(&ctl.epoch)
	c.Bool(&ctl.started)
	c.Len(len(ctl.bindings), "core: bindings")
	for _, b := range ctl.bindings {
		b.snapState(c)
	}

	// Policies carry a per-policy kind tag so a mismatched restore fails
	// loudly rather than misreading bytes.
	c.Len(len(ctl.bindings), "core: policies")
	for _, b := range ctl.bindings {
		id := b.SubNoC.ID
		c.Mark(snap.PartKey(partCtlPolicy, uint64(id)))
		switch p := b.Policy.(type) {
		case StaticPolicy:
			policyTag(c, policyStatic, id)
		case *DQNPolicy:
			policyTag(c, policyDQN, id)
			p.Agent.SnapState(c)
			c.I64(&p.lastInferences)
		case *QTablePolicy:
			policyTag(c, policyQTable, id)
			p.Agent.SnapState(c)
		default:
			c.Failf("core: unserializable policy %T for subNoC %d", b.Policy, id)
		}
	}
}

// Policy kind tags in the checkpoint stream.
const (
	policyStatic = iota
	policyDQN
	policyQTable
)

func policyTag(c *snap.Codec, want, subNoC int) {
	kind := want
	if c.Int(&kind); kind != want {
		c.Failf("core: checkpoint policy kind %d for subNoC %d, controller has kind %d", kind, subNoC, want)
	}
}

// snapState is one binding's learning context.
func (b *Binding) snapState(c *snap.Codec) {
	id := b.SubNoC.ID
	c.Mark(snap.PartKey(partCtlBinding, uint64(id)))
	if c.Int(&id); id != b.SubNoC.ID {
		c.Failf("core: checkpoint binding for subNoC %d, controller has %d", id, b.SubNoC.ID)
	}
	c.Bool(&b.hasPrev)
	if b.hasPrev {
		c.F64s(&b.prevState)
		c.Int((*int)(&b.prevAction))
		if b.prevAction < 0 || b.prevAction >= topology.NumSelectable {
			c.Failf("core: binding %d previous action %d", id, b.prevAction)
		}
	} else if c.Decoding() {
		b.prevState, b.prevAction = nil, 0
	}
	for i := range b.Selections {
		c.I64(&b.Selections[i])
	}
	c.F64(&b.RewardSum)
	c.I64(&b.EpochCount)
	b.Energy.SnapState(c)
	n := c.Count(len(b.Trace), 10)
	if c.Decoding() {
		b.Trace = b.Trace[:0]
	}
	for i := 0; i < n; i++ {
		if c.Decoding() {
			b.Trace = append(b.Trace, EpochRecord{})
		}
		t := &b.Trace[i]
		// The trace is append-only, so keying records by epoch turns
		// the whole history into copies in every delta.
		c.Mark(snap.PartKey(partCtlTrace, uint64(b.SubNoC.ID)<<24|uint64(uint32(t.Epoch))&(1<<24-1)))
		c.Int(&t.Epoch)
		c.Int((*int)(&t.Kind))
		c.Int((*int)(&t.Chosen))
		c.F64(&t.AvgNetLat)
		c.F64(&t.AvgQueueLat)
		c.F64(&t.AvgHops)
		c.F64(&t.PowerMW)
		c.F64(&t.Reward)
		c.I64(&t.Delivered)
		c.I64(&t.RetiredInstr)
		c.F64s(&t.State)
	}
}

// SnapState is the OSCAR controller's dynamic state. The assignment map is
// refilled in place because the routers' VC-policy closures read it live.
func (o *OSCARController) SnapState(c *snap.Codec) {
	c.Bool(&o.started)
	c.I64(&o.Reallocations)

	var keys []int
	if !c.Decoding() {
		keys = make([]int, 0, len(o.assignment))
		for k := range o.assignment {
			keys = append(keys, k)
		}
		sort.Ints(keys)
	}
	n := c.Count(len(keys), 2)
	if c.Decoding() {
		clear(o.assignment)
	}
	for i := 0; i < n; i++ {
		var k int
		var vcs []int
		if !c.Decoding() {
			k, vcs = keys[i], o.assignment[keys[i]]
		}
		c.Int(&k)
		nv := c.Count(len(vcs), 1)
		if c.Decoding() {
			vcs = make([]int, nv)
		}
		for j := range vcs {
			c.Int(&vcs[j])
		}
		if c.Decoding() {
			o.assignment[k] = vcs
		}
	}

	snap.IntMap(c, &o.demand)
}
