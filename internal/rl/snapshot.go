package rl

// Checkpoint support. Agents are pure state machines over their weights,
// replay buffer, and RNG, so serializing those three reproduces the exact
// training trajectory. Hyper-parameters (DQNConfig, QTable's scalars) come
// from the run configuration and are validated, not restored.

import (
	"sort"

	"adaptnoc/internal/snap"
)

// Part-mark kinds for rl state (delta alignment only; the 16+ range is
// reserved for this package when it writes into the control section —
// see internal/core). Identical keys recur across agents and between the
// prediction and target networks; the delta encoder pairs the leftovers
// positionally per kind, which preserves alignment because serialization
// order is deterministic.
const (
	partRLNetLayer = 16 + iota
	partRLReplayHeader
	partRLReplayEntry
	partRLAgentTail
	partRLQRow
)

// snapState is the network's shape and weights. The shape is a
// configuration echo: decoding requires it to match the receiver's.
func (n *Net) snapState(c *snap.Codec) {
	c.Len(len(n.Sizes), "rl: network layer sizes")
	for i, want := range n.Sizes {
		s := want
		if c.Int(&s); c.Decoding() && s != want {
			c.Failf("rl: checkpoint layer %d has %d units, agent has %d", i, s, want)
		}
	}
	for l := range n.W {
		c.Mark(snap.PartKey(partRLNetLayer, uint64(l)))
		c.F64s(&n.W[l])
		c.F64s(&n.B[l])
		if !c.Decoding() {
			continue
		}
		if want := n.Sizes[l] * n.Sizes[l+1]; len(n.W[l]) != want {
			c.Failf("rl: layer %d has %d weights, want %d", l, len(n.W[l]), want)
		}
		if len(n.B[l]) != n.Sizes[l+1] {
			c.Failf("rl: layer %d has %d biases, want %d", l, len(n.B[l]), n.Sizes[l+1])
		}
	}
}

// vecState is an optional []float64 (nil is distinct from empty).
func vecState(c *snap.Codec, v *[]float64) {
	ok := *v != nil
	if c.Bool(&ok); ok {
		c.F64s(v)
	}
}

// snapState is the buffer's contents and ring position; the capacity must
// match the receiver's.
func (rb *ReplayBuffer) snapState(c *snap.Codec) {
	c.Mark(snap.PartKey(partRLReplayHeader, 0))
	// The capacity is a configuration echo, not a count of following
	// elements (the buffer may be mostly empty).
	c.Len(len(rb.buf), "rl: replay capacity")
	c.Int(&rb.next)
	c.Bool(&rb.full)
	if c.Decoding() {
		if rb.next < 0 || rb.next >= max(len(rb.buf), 1) {
			c.Failf("rl: replay ring position %d of %d", rb.next, len(rb.buf))
			rb.next = 0
		}
		clear(rb.buf)
	}
	// How many experiences follow is implied by the ring state.
	n := rb.Len()
	c.Len(n, "rl: replay experiences")
	for i := 0; i < n; i++ {
		c.Mark(snap.PartKey(partRLReplayEntry, uint64(i)))
		e := &rb.buf[i]
		vecState(c, &e.State)
		c.Int(&e.Action)
		c.F64(&e.Reward)
		vecState(c, &e.Next)
	}
}

// SnapState is the agent's full learning state: both networks, the replay
// buffer, the exploration RNG, and the iteration counters. Decoding runs
// on an agent constructed with the same configuration.
func (d *DQN) SnapState(c *snap.Codec) {
	d.Prediction.snapState(c)
	d.target.snapState(c)
	d.Replay.snapState(c)
	c.Mark(snap.PartKey(partRLAgentTail, 0))
	d.rng.SnapState(c)
	c.Int(&d.iterations)
	c.I64(&d.Inferences)
}

// Snapshot and Restore are SnapState's two directions for the training
// checkpoint (internal/train), which frames its own section.
func (d *DQN) Snapshot(w *snap.Writer) {
	c := snap.Enc(w)
	d.SnapState(&c)
}

// Restore reads a state written by Snapshot.
func (d *DQN) Restore(r *snap.Reader) error {
	c := snap.Dec(r)
	d.SnapState(&c)
	return c.Err()
}

// SnapState is the table's learned values and exploration RNG; keys are
// sorted so the encoding is canonical.
func (t *QTable) SnapState(c *snap.Codec) {
	var keys []string
	if !c.Decoding() {
		keys = make([]string, 0, len(t.q))
		for k := range t.q {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	n := c.Count(len(keys), 2)
	if c.Decoding() {
		t.q = make(map[string][]float64, n)
	}
	for i := 0; i < n; i++ {
		var k string
		var row []float64
		if !c.Decoding() {
			k, row = keys[i], t.q[keys[i]]
			h := uint64(1469598103934665603)
			for j := 0; j < len(k); j++ {
				h ^= uint64(k[j])
				h *= 1099511628211
			}
			c.Mark(snap.PartKey(partRLQRow, h))
		}
		c.String(&k)
		c.F64s(&row)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		if _, dup := t.q[k]; dup {
			c.Failf("rl: duplicate Q row %q", k)
		} else if len(row) != NumActions {
			c.Failf("rl: Q row %q has %d actions, want %d", k, len(row), NumActions)
		}
		t.q[k] = row
	}
	c.Mark(snap.PartKey(partRLAgentTail, 1))
	t.rng.SnapState(c)
}
