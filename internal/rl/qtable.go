package rl

import (
	"adaptnoc/internal/sim"
)

// QTable is the tabular Q-learning agent of Section III-A (Equation 1):
// Q(s,a) += α[r + γ·maxQ(s',·) − Q(s,a)]. Continuous state vectors are
// discretized into a small number of buckets per feature; the table grows
// lazily. It exists as the simpler alternative the paper motivates DQN
// against (exponential table growth) and as a unit-testable reference.
type QTable struct {
	Alpha   float64 // learning rate (paper: 0.1)
	Gamma   float64 // discount factor (paper: 0.9)
	Epsilon float64 // exploration rate (paper: 0.05)
	Buckets int     // discretization levels per feature

	q   map[string][]float64
	rng *sim.RNG
}

// NewQTable creates an agent with the paper's online hyper-parameters.
func NewQTable(rng *sim.RNG) *QTable {
	return &QTable{Alpha: 0.1, Gamma: 0.9, Epsilon: 0.05, Buckets: 4,
		q: make(map[string][]float64), rng: rng}
}

// key discretizes a normalized state vector.
func (t *QTable) key(state []float64) string {
	b := make([]byte, len(state))
	for i, v := range state {
		k := int(v * float64(t.Buckets))
		if k >= t.Buckets {
			k = t.Buckets - 1
		}
		if k < 0 {
			k = 0
		}
		b[i] = byte('a' + k)
	}
	return string(b)
}

func (t *QTable) row(state []float64) []float64 {
	k := t.key(state)
	r, ok := t.q[k]
	if !ok {
		r = make([]float64, NumActions)
		t.q[k] = r
	}
	return r
}

// Select returns the ε-greedy action.
func (t *QTable) Select(state []float64) int {
	if t.rng.Float64() < t.Epsilon {
		return t.rng.Intn(NumActions)
	}
	return Argmax(t.row(state))
}

// Update applies the Q-learning rule for an observed transition.
func (t *QTable) Update(state []float64, action int, reward float64, next []float64) {
	row := t.row(state)
	var maxNext float64
	if next != nil {
		nr := t.row(next)
		maxNext = nr[Argmax(nr)]
	}
	row[action] += t.Alpha * (reward + t.Gamma*maxNext - row[action])
}

// Entries returns the number of distinct discretized states seen.
func (t *QTable) Entries() int { return len(t.q) }
