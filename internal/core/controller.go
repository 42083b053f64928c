// Package core is the Adapt-NoC control plane — the paper's primary
// contribution tied together: per-subNoC RL controllers (placed in the
// memory controllers, Section III-A) observe the Table I state every epoch
// (50K cycles), compute the reward −power×(Tnetwork+Tqueuing) from the
// previous epoch, select one of the four subNoC topologies, and drive the
// fabric's deadlock-free reconfiguration. The same controller runs the
// Adapt-NoC-noRL baseline (a statically pinned topology) and exposes the
// per-epoch traces the evaluation figures are built from.
package core

import (
	"fmt"

	"adaptnoc/internal/fabric"
	"adaptnoc/internal/power"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/system"
	"adaptnoc/internal/topology"
)

// Policy selects the next topology for a subNoC each epoch.
type Policy interface {
	// Decide maps a normalized state to a topology; called once per epoch.
	Decide(state []float64) topology.Kind
	// Learn observes the completed transition (no-op for static and
	// deployment-mode DQN policies).
	Learn(prev []float64, action topology.Kind, reward float64, next []float64)
	// Inferences reports forward passes since the last call (for the
	// power model).
	Inferences() int
}

// StaticPolicy pins one topology (Adapt-NoC-noRL, design point 6).
type StaticPolicy struct{ Kind topology.Kind }

// Decide implements Policy.
func (s StaticPolicy) Decide([]float64) topology.Kind { return s.Kind }

// Learn implements Policy.
func (s StaticPolicy) Learn([]float64, topology.Kind, float64, []float64) {}

// Inferences implements Policy.
func (s StaticPolicy) Inferences() int { return 0 }

// DQNPolicy adapts an rl.DQN to the controller. With Train set it learns
// online (used by the offline-training harness, which runs the same loop
// against training workloads); in deployment only the forward pass runs.
type DQNPolicy struct {
	Agent *rl.DQN
	Train bool

	lastInferences int64
}

// Decide implements Policy.
func (d *DQNPolicy) Decide(state []float64) topology.Kind {
	return topology.Kind(d.Agent.Select(state))
}

// Learn implements Policy.
func (d *DQNPolicy) Learn(prev []float64, action topology.Kind, reward float64, next []float64) {
	if !d.Train {
		return
	}
	d.Agent.Observe(rl.Experience{State: prev, Action: int(action), Reward: reward, Next: next})
	d.Agent.TrainIteration()
}

// Inferences implements Policy.
func (d *DQNPolicy) Inferences() int {
	n := d.Agent.Inferences - d.lastInferences
	d.lastInferences = d.Agent.Inferences
	return int(n)
}

// QTablePolicy adapts the tabular agent (online Q-learning comparison).
type QTablePolicy struct{ Agent *rl.QTable }

// Decide implements Policy.
func (q *QTablePolicy) Decide(state []float64) topology.Kind {
	return topology.Kind(q.Agent.Select(state))
}

// Learn implements Policy.
func (q *QTablePolicy) Learn(prev []float64, action topology.Kind, reward float64, next []float64) {
	q.Agent.Update(prev, int(action), reward, next)
}

// Inferences implements Policy.
func (q *QTablePolicy) Inferences() int { return 1 }

// EpochRecord is one epoch's observations for one subNoC, the raw material
// of Figs. 14-19.
type EpochRecord struct {
	Epoch        int
	Kind         topology.Kind
	Chosen       topology.Kind
	AvgNetLat    float64
	AvgQueueLat  float64
	AvgHops      float64
	PowerMW      float64
	Reward       float64
	Delivered    int64
	RetiredInstr int64
	// State is the normalized Table I vector observed this epoch.
	State []float64
}

// Binding couples a subNoC, its application, and its control policy.
type Binding struct {
	SubNoC *fabric.SubNoC
	App    *system.App
	Policy Policy

	prevState  []float64
	prevAction topology.Kind
	hasPrev    bool

	// Selections histogram over epochs (Figs. 14-15); sized to include
	// the TorusTree extension, which static policies may pin.
	Selections [topology.NumSelectable]int64
	// Trace holds per-epoch records when tracing is enabled.
	Trace      []EpochRecord
	KeepTrace  bool
	RewardSum  float64
	EpochCount int64
	// Energy accumulates the subNoC's collected energy windows.
	Energy power.Breakdown
}

// Controller runs the epoch loop for every bound subNoC.
type Controller struct {
	EpochCycles int // paper: 50K

	kernel  *sim.Kernel
	fab     *fabric.Fabric
	machine *system.Machine
	meter   *power.Meter
	scales  rl.Scales

	bindings []*Binding
	epoch    int
	started  bool
}

// Kernel operation IDs owned by this package (range 300-399).
const (
	// opCtlEpoch is the RL controller's periodic epoch boundary.
	opCtlEpoch sim.OpID = 300 + iota
	// opOscarEpoch is the OSCAR controller's periodic VC re-balancing.
	opOscarEpoch
)

// NewController assembles the control plane.
func NewController(kernel *sim.Kernel, fab *fabric.Fabric, machine *system.Machine, meter *power.Meter) *Controller {
	c := &Controller{
		EpochCycles: 50000,
		kernel:      kernel,
		fab:         fab,
		machine:     machine,
		meter:       meter,
		scales:      rl.DefaultScales(),
	}
	kernel.RegisterOp(opCtlEpoch, func(now sim.Cycle, _ [3]int64) { c.onEpoch(now) })
	return c
}

// Bind attaches a policy to a subNoC/application pair.
func (c *Controller) Bind(sn *fabric.SubNoC, app *system.App, p Policy) *Binding {
	b := &Binding{SubNoC: sn, App: app, Policy: p}
	c.bindings = append(c.bindings, b)
	return b
}

// Bindings returns the bound subNoCs.
func (c *Controller) Bindings() []*Binding { return c.bindings }

// Start schedules the periodic epoch handler.
func (c *Controller) Start() {
	if c.started {
		panic("core: controller started twice")
	}
	c.started = true
	c.kernel.AfterOp(sim.Cycle(c.EpochCycles), opCtlEpoch, 0, 0, 0)
}

// onEpoch processes every binding, then reschedules itself.
func (c *Controller) onEpoch(now sim.Cycle) {
	c.epoch++
	for _, b := range c.bindings {
		c.processBinding(b, now)
	}
	c.kernel.AfterOp(sim.Cycle(c.EpochCycles), opCtlEpoch, 0, 0, 0)
}

// processBinding observes one subNoC's epoch, learns, decides, and
// triggers reconfiguration when the chosen topology differs.
func (c *Controller) processBinding(b *Binding, now sim.Cycle) {
	reg := b.SubNoC.Region
	tiles := c.fab.RegionOf(b.SubNoC)
	win := b.App.TakeWindow()
	pw := c.meter.CollectRegionAt(tiles, now)

	infs := b.Policy.Inferences()
	rlPJ := c.meter.AddRLInferences(infs)
	energy := addRL(pw.Energy, rlPJ)
	b.Energy.Add(energy)
	powerMW := power.AvgPowerMW(energy, pw.Cycles, c.meter.P.ClockGHz)

	// Count features are per-tile rates against a 50K-cycle reference
	// epoch, so one trained policy transfers across epoch lengths and
	// subNoC sizes.
	ef := 50000.0 / float64(c.EpochCycles) / float64(len(tiles))
	raw := rl.RawState{
		L1DMisses:        ef * float64(win.L1DMisses),
		L1IMisses:        ef * float64(win.L1IMisses),
		L2Misses:         ef * float64(win.L2Misses),
		RetiredInstr:     ef * float64(win.Retired),
		CoherencePackets: ef * float64(win.CoherencePackets),
		DataPackets:      ef * float64(win.DataPackets),
		RouterBufUtil:    pw.RouterBufUtil(),
		InjBufUtil:       clamp01(pw.InjQueueAvg(len(tiles)) / 8.0),
		RouterThroughput: pw.Throughput(),
		Current:          b.SubNoC.Kind,
		Cols:             reg.W,
		Rows:             reg.H,
	}
	state := c.scales.Normalize(raw)
	reward := rl.Reward(powerMW, win.AvgNetLatency(), win.AvgQueueLatency())

	if b.hasPrev {
		b.Policy.Learn(b.prevState, b.prevAction, reward, state)
	}
	b.RewardSum += reward
	b.EpochCount++

	chosen := b.Policy.Decide(state)
	b.Selections[chosen]++
	if b.KeepTrace {
		b.Trace = append(b.Trace, EpochRecord{
			Epoch: c.epoch, Kind: b.SubNoC.Kind, Chosen: chosen,
			AvgNetLat: win.AvgNetLatency(), AvgQueueLat: win.AvgQueueLatency(),
			AvgHops: win.AvgHops(), PowerMW: powerMW, Reward: reward,
			Delivered: win.Delivered, RetiredInstr: win.Retired,
			State: append([]float64(nil), state...),
		})
	}
	b.prevState, b.prevAction, b.hasPrev = state, chosen, true

	if chosen != b.SubNoC.Kind && b.SubNoC.State() == fabric.StateActive {
		if err := c.fab.Reconfigure(b.SubNoC, chosen); err != nil {
			panic(fmt.Sprintf("core: reconfigure subNoC %d: %v", b.SubNoC.ID, err))
		}
	}
}

// SelectionFractions returns the per-topology fraction of epoch decisions
// (the bars of Figs. 14-15).
func (b *Binding) SelectionFractions() [topology.NumSelectable]float64 {
	var out [topology.NumSelectable]float64
	var total int64
	for _, n := range b.Selections {
		total += n
	}
	if total == 0 {
		return out
	}
	for i, n := range b.Selections {
		out[i] = float64(n) / float64(total)
	}
	return out
}

// MeanReward returns the average per-epoch reward.
func (b *Binding) MeanReward() float64 {
	if b.EpochCount == 0 {
		return 0
	}
	return b.RewardSum / float64(b.EpochCount)
}

func addRL(b power.Breakdown, rlPJ float64) power.Breakdown {
	b.RLPJ += rlPJ
	return b
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
