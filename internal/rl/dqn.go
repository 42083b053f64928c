package rl

import (
	"adaptnoc/internal/sim"
)

// Experience is one (s, a, r, s') transition in the replay buffer.
type Experience struct {
	State  []float64
	Action int
	Reward float64
	Next   []float64
}

// ReplayBuffer is the 1000-entry experience store of Section III-E,
// overwritten ring-style.
type ReplayBuffer struct {
	buf  []Experience
	next int
	full bool
}

// NewReplayBuffer creates a buffer with the given capacity.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	return &ReplayBuffer{buf: make([]Experience, capacity)}
}

// Add stores one experience, evicting the oldest when full.
func (rb *ReplayBuffer) Add(e Experience) {
	rb.buf[rb.next] = e
	rb.next++
	if rb.next == len(rb.buf) {
		rb.next = 0
		rb.full = true
	}
}

// Len returns the number of stored experiences.
func (rb *ReplayBuffer) Len() int {
	if rb.full {
		return len(rb.buf)
	}
	return rb.next
}

// Sample returns a uniformly random stored experience.
func (rb *ReplayBuffer) Sample(rng *sim.RNG) Experience {
	return rb.buf[rng.Intn(rb.Len())]
}

// DQNConfig carries the Section III-E / IV-A hyper-parameters.
type DQNConfig struct {
	Hidden       []int   // hidden layer sizes (paper: 15, 15)
	LearningRate float64 // neural-network learning rate (paper: 1e-4)
	Gamma        float64 // discount factor (paper: 0.9)
	Epsilon      float64 // exploration rate (paper: 0.05)
	ReplaySize   int     // experiences (paper: 1000)
	Minibatch    int     // SGD samples per training iteration (paper: 100)
	TargetSync   int     // iterations between target-network syncs (paper: 168)
}

// DefaultDQNConfig returns the paper's hyper-parameters.
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		Hidden:       []int{15, 15},
		LearningRate: 1e-4,
		Gamma:        0.9,
		Epsilon:      0.05,
		ReplaySize:   1000,
		Minibatch:    100,
		TargetSync:   168,
	}
}

// DQN is the deep Q-network agent: a prediction network that selects
// actions, a target network that stabilizes the bootstrap targets, and an
// experience replay buffer that decorrelates training samples. Training is
// offline (Section III-E); at deployment only the prediction network's
// forward pass runs in the per-subNoC RL controller.
type DQN struct {
	Cfg        DQNConfig
	Prediction *Net
	target     *Net
	Replay     *ReplayBuffer

	rng        *sim.RNG
	iterations int

	// Inferences counts forward passes for the power model.
	Inferences int64
}

// NewDQN creates an agent with freshly initialized networks.
func NewDQN(cfg DQNConfig, rng *sim.RNG) *DQN {
	sizes := append([]int{StateSize}, cfg.Hidden...)
	sizes = append(sizes, NumActions)
	pred := NewNet(sizes, rng)
	return &DQN{
		Cfg:        cfg,
		Prediction: pred,
		target:     pred.Clone(),
		Replay:     NewReplayBuffer(cfg.ReplaySize),
		rng:        rng,
	}
}

// NewDQNFromNet wraps a pre-trained prediction network for deployment.
func NewDQNFromNet(cfg DQNConfig, net *Net, rng *sim.RNG) *DQN {
	return &DQN{
		Cfg:        cfg,
		Prediction: net,
		target:     net.Clone(),
		Replay:     NewReplayBuffer(cfg.ReplaySize),
		rng:        rng,
	}
}

// Select returns the ε-greedy action for a normalized state.
func (d *DQN) Select(state []float64) int {
	d.Inferences++
	if d.rng.Float64() < d.Cfg.Epsilon {
		return d.rng.Intn(NumActions)
	}
	return Argmax(d.Prediction.Forward(state))
}

// Observe stores a transition in the replay buffer.
func (d *DQN) Observe(e Experience) {
	d.Replay.Add(e)
}

// TrainIteration runs one minibatch of SGD against targets from the target
// network and syncs the target network on schedule. It returns the mean
// absolute TD error of the minibatch. No-op (returns 0) until the replay
// buffer holds a minibatch.
func (d *DQN) TrainIteration() float64 {
	if d.Replay.Len() < d.Cfg.Minibatch {
		return 0
	}
	var absErr float64
	for i := 0; i < d.Cfg.Minibatch; i++ {
		e := d.Replay.Sample(d.rng)
		target := e.Reward
		if e.Next != nil {
			q := d.target.Forward(e.Next)
			target += d.Cfg.Gamma * q[Argmax(q)]
		}
		err := d.Prediction.TrainStep(e.State, e.Action, target, d.Cfg.LearningRate)
		if err < 0 {
			err = -err
		}
		absErr += err
	}
	d.iterations++
	if d.iterations%d.Cfg.TargetSync == 0 {
		d.target.CopyFrom(d.Prediction)
	}
	return absErr / float64(d.Cfg.Minibatch)
}
