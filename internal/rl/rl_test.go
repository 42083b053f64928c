package rl

import (
	"encoding/json"
	"math"
	"testing"

	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

func TestNetForwardShape(t *testing.T) {
	rng := sim.NewRNG(1)
	n := NewNet([]int{StateSize, 15, 15, NumActions}, rng)
	out := n.Forward(make([]float64, StateSize))
	if len(out) != NumActions {
		t.Fatalf("output size %d, want %d", len(out), NumActions)
	}
}

func TestNetLearnsLinearTarget(t *testing.T) {
	// Supervised sanity check: the net should fit Q(x)[a] = 2*x[a] on
	// random inputs via TrainStep.
	rng := sim.NewRNG(2)
	n := NewNet([]int{4, 16, 4}, rng)
	var lastErr float64
	for iter := 0; iter < 40000; iter++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.Float64()
		}
		a := rng.Intn(4)
		target := 2 * x[a]
		e := n.TrainStep(x, a, target, 0.01)
		lastErr = math.Abs(e)
	}
	// Evaluate on fresh samples.
	var worst float64
	for i := 0; i < 200; i++ {
		x := make([]float64, 4)
		for j := range x {
			x[j] = rng.Float64()
		}
		out := n.Forward(x)
		for a := 0; a < 4; a++ {
			if d := math.Abs(out[a] - 2*x[a]); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.25 {
		t.Fatalf("net failed to fit linear target: worst error %.3f (last TD %.3f)", worst, lastErr)
	}
}

func TestNetJSONRoundTrip(t *testing.T) {
	rng := sim.NewRNG(3)
	n := NewNet([]int{StateSize, 15, 15, NumActions}, rng)
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var m Net
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, StateSize)
	for i := range x {
		x[i] = rng.Float64()
	}
	a, bOut := n.Forward(x), m.Forward(x)
	for i := range a {
		if a[i] != bOut[i] {
			t.Fatalf("round-trip output mismatch at %d: %v vs %v", i, a[i], bOut[i])
		}
	}
}

func TestNetJSONRejectsMalformed(t *testing.T) {
	var m Net
	if err := json.Unmarshal([]byte(`{"sizes":[2,3],"weights":[[1,2,3]],"biases":[[0,0,0]]}`), &m); err == nil {
		t.Fatal("accepted weight matrix with wrong shape")
	}
}

func TestReplayBufferRing(t *testing.T) {
	rb := NewReplayBuffer(4)
	for i := 0; i < 6; i++ {
		rb.Add(Experience{Action: i})
	}
	if rb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rb.Len())
	}
	rng := sim.NewRNG(4)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[rb.Sample(rng).Action] = true
	}
	for a := 2; a <= 5; a++ {
		if !seen[a] {
			t.Fatalf("action %d never sampled", a)
		}
	}
	if seen[0] || seen[1] {
		t.Fatal("evicted experiences still sampled")
	}
}

// toyEnv is a deterministic 2-feature MDP where action quality depends on
// the first feature: states with v<0.5 reward action 0, others action 2.
type toyEnv struct {
	rng *sim.RNG
}

func (e *toyEnv) state() []float64 {
	s := make([]float64, StateSize)
	s[0] = e.rng.Float64()
	return s
}

func (e *toyEnv) reward(s []float64, a int) float64 {
	want := 0
	if s[0] >= 0.5 {
		want = 2
	}
	if a == want {
		return 1
	}
	return -1
}

func TestDQNLearnsToyPolicy(t *testing.T) {
	rng := sim.NewRNG(5)
	cfg := DefaultDQNConfig()
	cfg.LearningRate = 5e-3 // the toy problem tolerates a fast rate
	d := NewDQN(cfg, rng)
	env := &toyEnv{rng: sim.NewRNG(6)}

	for iter := 0; iter < 4000; iter++ {
		s := env.state()
		a := d.Select(s)
		r := env.reward(s, a)
		next := env.state()
		d.Observe(Experience{State: s, Action: a, Reward: r, Next: next})
		d.TrainIteration()
	}
	correct := 0
	trials := 500
	for i := 0; i < trials; i++ {
		s := env.state()
		a := Argmax(d.Prediction.Forward(s))
		want := 0
		if s[0] >= 0.5 {
			want = 2
		}
		if a == want {
			correct++
		}
	}
	if frac := float64(correct) / float64(trials); frac < 0.9 {
		t.Fatalf("DQN greedy accuracy %.2f, want >= 0.9", frac)
	}
	if d.Inferences == 0 {
		t.Fatal("no inferences counted")
	}
}

func TestDQNTargetSyncReducesHeldOutError(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := DefaultDQNConfig()
	cfg.LearningRate = 5e-3
	d := NewDQN(cfg, rng)
	env := &toyEnv{rng: sim.NewRNG(8)}

	heldOut := make([]Experience, 100)
	for i := range heldOut {
		s := env.state()
		a := i % NumActions
		heldOut[i] = Experience{State: s, Action: a, Reward: env.reward(s, a), Next: env.state()}
	}
	meanAbs := func() float64 {
		var s float64
		for _, e := range heldOut {
			s += math.Abs(d.TDError(e))
		}
		return s / float64(len(heldOut))
	}
	before := meanAbs()
	for iter := 0; iter < 3000; iter++ {
		s := env.state()
		a := d.Select(s)
		d.Observe(Experience{State: s, Action: a, Reward: env.reward(s, a), Next: env.state()})
		d.TrainIteration()
	}
	after := meanAbs()
	if after >= before {
		t.Fatalf("held-out TD error did not fall: before %.3f after %.3f", before, after)
	}
}

func TestQTableConvergesOnDeterministicMDP(t *testing.T) {
	rng := sim.NewRNG(9)
	q := NewQTable(rng)
	q.Epsilon = 0.2
	env := &toyEnv{rng: sim.NewRNG(10)}
	for i := 0; i < 20000; i++ {
		s := env.state()
		a := q.Select(s)
		q.Update(s, a, env.reward(s, a), nil)
	}
	q.Epsilon = 0
	correct, trials := 0, 500
	for i := 0; i < trials; i++ {
		s := env.state()
		want := 0
		if s[0] >= 0.5 {
			want = 2
		}
		if q.Select(s) == want {
			correct++
		}
	}
	if frac := float64(correct) / float64(trials); frac < 0.95 {
		t.Fatalf("Q-table accuracy %.2f, want >= 0.95", frac)
	}
	if q.Entries() == 0 {
		t.Fatal("empty Q-table after training")
	}
}

func TestNormalizeClampsAndOrders(t *testing.T) {
	s := DefaultScales()
	r := RawState{
		L1DMisses: 1e9, L1IMisses: -5, L2Misses: 100,
		RetiredInstr: 200000, CoherencePackets: 15000, DataPackets: 30000,
		RouterBufUtil: 0.5, InjBufUtil: 2.0,
		RouterThroughput: 0.25, Current: topology.Torus, Cols: 4, Rows: 8,
	}
	v := s.Normalize(r)
	if len(v) != StateSize {
		t.Fatalf("state size %d, want %d", len(v), StateSize)
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("feature %d = %v out of [0,1]", i, x)
		}
	}
	if v[0] != 1 || v[1] != 0 {
		t.Fatalf("clamping broken: %v %v", v[0], v[1])
	}
	if v[11] != 1 || v[10] != 0.5 {
		t.Fatalf("dims wrong: cols=%v rows=%v", v[10], v[11])
	}
}

func TestRewardSign(t *testing.T) {
	// Higher power or latency must give a lower (more negative) reward.
	base := Reward(10, 20, 5)
	if Reward(20, 20, 5) >= base {
		t.Fatal("reward not decreasing in power")
	}
	if Reward(10, 30, 5) >= base {
		t.Fatal("reward not decreasing in network latency")
	}
	if Reward(10, 20, 15) >= base {
		t.Fatal("reward not decreasing in queuing latency")
	}
}

func TestNetCloneAndCopyFrom(t *testing.T) {
	rng := sim.NewRNG(41)
	a := NewNet([]int{4, 8, 4}, rng)
	b := a.Clone()
	x := []float64{0.1, 0.2, 0.3, 0.4}
	// Training a must not affect b.
	for i := 0; i < 100; i++ {
		a.TrainStep(x, 0, -1, 0.01)
	}
	ao, bo := a.Forward(x), b.Forward(x)
	if ao[0] == bo[0] {
		t.Fatal("clone aliases the original")
	}
	b.CopyFrom(a)
	bo = b.Forward(x)
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatal("CopyFrom did not synchronize")
		}
	}
}

func TestTrainStepClipsLargeTargets(t *testing.T) {
	rng := sim.NewRNG(43)
	n := NewNet([]int{4, 8, 4}, rng)
	x := []float64{1, 1, 1, 1}
	before := n.Forward(x)[1]
	n.TrainStep(x, 1, -1e9, 0.01)
	after := n.Forward(x)[1]
	// The applied gradient is clipped, so one outlier moves the output by
	// a bounded amount rather than destroying the network.
	if d := before - after; d > 5 || d < 0 {
		t.Fatalf("clipped update moved output by %v", d)
	}
	for _, v := range n.Forward(x) {
		if v != v { // NaN check
			t.Fatal("NaN after outlier update")
		}
	}
}

// TDError evaluates the TD error of one transition without training; used
// to measure held-out convergence.
func (d *DQN) TDError(e Experience) float64 {
	target := e.Reward
	if e.Next != nil {
		q := d.target.Forward(e.Next)
		target += d.Cfg.Gamma * q[Argmax(q)]
	}
	return target - d.Prediction.Forward(e.State)[e.Action]
}
