package adaptnoc

import (
	"context"
	"fmt"
	"strings"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/power"
	"adaptnoc/internal/topology"
)

// AppResult summarizes one application's run.
type AppResult struct {
	Profile string `json:"profile"`
	Region  Region `json:"region"`

	// Latencies are lifetime means over delivered packets, in cycles.
	AvgTotalLatency float64 `json:"avgTotalLatency"`
	AvgNetLatency   float64 `json:"avgNetLatency"`
	AvgQueueLatency float64 `json:"avgQueueLatency"`
	AvgHops         float64 `json:"avgHops"`

	DeliveredPackets int64 `json:"deliveredPackets"`
	RetiredInstr     int64 `json:"retiredInstr"`

	// DroppedPackets counts packets a fault made undeliverable. omitempty
	// keeps fault-free Results JSON byte-identical to earlier versions.
	DroppedPackets int64 `json:"droppedPackets,omitempty"`

	// ExecTime is the completion cycle for budgeted apps (-1 otherwise).
	ExecTime Cycle `json:"execTime"`

	// Energy is the region's account (per-epoch for Adapt designs, one
	// final window otherwise).
	Energy EnergyBreakdown `json:"energy"`

	// Adapt-NoC only: per-topology selection fractions (including the
	// TorusTree extension) and reconfiguration statistics.
	Selections [int(topology.NumSelectable)]float64 `json:"selections"`
	Reconfigs  int64                                `json:"reconfigs"`
	FinalKind  Kind                                 `json:"finalKind"`
	MeanReward float64                              `json:"meanReward"`
}

// Results is one simulation's outcome.
type Results struct {
	Design Design      `json:"design"`
	Cycles Cycle       `json:"cycles"`
	Apps   []AppResult `json:"apps"`
	// TotalEnergy covers the whole chip.
	TotalEnergy EnergyBreakdown `json:"totalEnergy"`
}

// Run advances the simulation a fixed number of cycles.
func (s *Sim) Run(cycles Cycle) { s.Kernel.RunFor(cycles) }

// SetShards sets the network-tick shard count: 1 (or less) is serial, and
// k > 1 ticks the chip's row bands on k goroutines. Sharding is a runtime
// execution knob — any value computes byte-identical results — so it is
// not part of Config and may be changed at any cycle boundary.
func (s *Sim) SetShards(k int) { s.Net.SetShards(k) }

// StopWorkers releases the shard worker goroutines of a parked
// simulation; the next run restarts them on demand.
func (s *Sim) StopWorkers() { s.Net.StopWorkers() }

// RunUntilFinished advances until every budgeted application completes or
// maxCycles elapse; it reports whether everything finished.
func (s *Sim) RunUntilFinished(maxCycles Cycle) bool {
	s.advance(context.Background(), s.Kernel.Now()+maxCycles, true)
	return s.Machine.AllFinished()
}

// runCheckCycles is the cancellation-poll granularity of the context-aware
// run methods: ctx.Err() is consulted every runCheckCycles kernel cycles,
// so cancellation interrupts a simulation well within one control epoch
// (epochs are 10K cycles and up) instead of after the remaining window.
const runCheckCycles = 1024

// RunContext advances the simulation a fixed number of cycles, like Run,
// but polls ctx every runCheckCycles cycles and stops early with ctx's
// error when it is cancelled. A nil return means the full window ran.
// Cancellation never corrupts the simulation: it stops between cycles, and
// the sim can be resumed or inspected (Results) afterwards.
func (s *Sim) RunContext(ctx context.Context, cycles Cycle) error {
	return s.advance(ctx, s.Kernel.Now()+cycles, false)
}

// RunTo is the run loop every driver shares. It advances the simulation to
// the absolute cycle limit, so a restored simulation runs only what
// remains, and takes its mode from the configuration: a Finite config
// stops as soon as every budgeted or replayed application has finished,
// any other runs the whole window.
//
// The run is cut into slices of every cycles, counted from the clock at
// the call (every <= 0 is one slice), and after, when non-nil, runs once
// after each completed slice, the last one included: a periodic
// ChainWriter.Save, a progress event. Slicing never changes what the run
// computes. An error from after, or ctx's error (polled every
// runCheckCycles cycles), stops the run and is returned as it is.
// finished reports whether every finite application has completed, which
// a window config, having none, always has.
func (s *Sim) RunTo(ctx context.Context, limit, every Cycle, after func() error) (finished bool, err error) {
	finite := s.Cfg.Finite()
	for next := s.Kernel.Now(); next < limit && !(finite && s.Machine.AllFinished()); {
		if every <= 0 || every >= limit-next {
			next = limit
		} else {
			next += every
		}
		if err = s.advance(ctx, next, finite); err == nil && after != nil {
			err = after()
		}
		if err != nil {
			break
		}
	}
	return s.Machine.AllFinished(), err
}

// advance runs to the absolute cycle limit, polling ctx every
// runCheckCycles cycles. untilFinished steps cycle by cycle and stops at
// the cycle the last finite application finishes, so that stop cycle, and
// with it the energy window, never depends on how the run was sliced.
func (s *Sim) advance(ctx context.Context, limit Cycle, untilFinished bool) error {
	for s.Kernel.Now() < limit && !(untilFinished && s.Machine.AllFinished()) {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := min(limit, s.Kernel.Now()+runCheckCycles)
		if !untilFinished {
			s.Kernel.Run(chunk)
			continue
		}
		for s.Kernel.Now() < chunk && !s.Machine.AllFinished() {
			s.Kernel.Step()
		}
	}
	return nil
}

// Results flushes the remaining energy windows and assembles the outcome.
// Call once, after running.
func (s *Sim) Results() Results {
	now := s.Kernel.Now()
	res := Results{Design: s.Cfg.Design, Cycles: now}

	// Flush energy windows. Adapt designs collected per epoch already;
	// this picks up the tail. Other designs get their only window here.
	covered := make(map[noc.NodeID]bool)
	perApp := make([]power.Breakdown, len(s.apps))
	for i, app := range s.apps {
		tiles := s.specs[i].Region.Tiles(s.Net.Cfg.Width)
		w := s.Meter.CollectRegionAt(tiles, now)
		perApp[i] = w.Energy
		for _, t := range tiles {
			covered[t] = true
		}
		_ = app
	}
	// Leftover tiles (outside every app region) still leak static power.
	var leftovers []noc.NodeID
	for t := noc.NodeID(0); int(t) < s.Net.Cfg.NumNodes(); t++ {
		if !covered[t] {
			leftovers = append(leftovers, t)
		}
	}
	if len(leftovers) > 0 {
		s.Meter.CollectRegionAt(leftovers, now)
	}
	res.TotalEnergy = s.Meter.Total()

	for i, app := range s.apps {
		tot := app.Totals()
		ar := AppResult{
			// The app's label, not the spec's Profile field: a trace-driven
			// spec has no Profile, but its app carries the recorded name, so
			// replay rows merge into the same results tables.
			Profile:          app.Profile.Name,
			Region:           s.specs[i].Region,
			AvgNetLatency:    tot.AvgNetLatency(),
			AvgQueueLatency:  tot.AvgQueueLatency(),
			AvgHops:          tot.AvgHops(),
			AvgTotalLatency:  tot.AvgNetLatency() + tot.AvgQueueLatency(),
			DeliveredPackets: tot.Delivered,
			RetiredInstr:     tot.Retired,
			DroppedPackets:   s.Machine.DroppedPackets(app.ID),
			ExecTime:         app.FinishedAt(),
			Energy:           perApp[i],
			FinalKind:        Mesh,
		}
		if s.binds != nil {
			b := s.binds[i]
			ar.Selections = b.SelectionFractions()
			ar.Reconfigs = b.SubNoC.Reconfigs
			ar.FinalKind = b.SubNoC.Kind
			ar.MeanReward = b.MeanReward()
			// Fold the per-epoch energy collections into the app account.
			e := b.Energy
			e.Add(perApp[i])
			ar.Energy = e
		}
		res.Apps = append(res.Apps, ar)
	}
	return res
}

// MeanLatency returns the delivery-weighted mean total packet latency
// across apps (the Fig. 7 metric).
func (r Results) MeanLatency() float64 {
	var lat, n float64
	for _, a := range r.Apps {
		lat += a.AvgTotalLatency * float64(a.DeliveredPackets)
		n += float64(a.DeliveredPackets)
	}
	if n == 0 {
		return 0
	}
	return lat / n
}

// MeanHops returns the delivery-weighted mean hop count.
func (r Results) MeanHops() float64 {
	var h, n float64
	for _, a := range r.Apps {
		h += a.AvgHops * float64(a.DeliveredPackets)
		n += float64(a.DeliveredPackets)
	}
	if n == 0 {
		return 0
	}
	return h / n
}

// SurvivalRate returns the fraction of enqueued packets that survived to
// delivery: delivered / (delivered + dropped) across apps. With no traffic
// (or no faults) it is 1.
func (r Results) SurvivalRate() float64 {
	var delivered, dropped float64
	for _, a := range r.Apps {
		delivered += float64(a.DeliveredPackets)
		dropped += float64(a.DroppedPackets)
	}
	if delivered+dropped == 0 {
		return 1
	}
	return delivered / (delivered + dropped)
}

// MeanExecTime returns the mean completion cycle over budgeted apps, or -1
// if any did not finish.
func (r Results) MeanExecTime() float64 {
	var s float64
	n := 0
	for _, a := range r.Apps {
		if a.ExecTime < 0 {
			return -1
		}
		s += float64(a.ExecTime)
		n++
	}
	if n == 0 {
		return -1
	}
	return s / float64(n)
}

// String renders a human-readable summary.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design=%s cycles=%d energy=%.2fuJ (dyn %.2f, static %.2f)\n",
		r.Design, r.Cycles, r.TotalEnergy.TotalPJ()/1e6,
		r.TotalEnergy.DynamicPJ()/1e6, r.TotalEnergy.StaticPJ()/1e6)
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "  %-14s %v lat=%.1f (net %.1f + queue %.1f) hops=%.2f pkts=%d",
			a.Profile, a.Region, a.AvgTotalLatency, a.AvgNetLatency, a.AvgQueueLatency,
			a.AvgHops, a.DeliveredPackets)
		if a.DroppedPackets > 0 {
			fmt.Fprintf(&b, " drop=%d", a.DroppedPackets)
		}
		if a.ExecTime >= 0 {
			fmt.Fprintf(&b, " exec=%d", a.ExecTime)
		}
		if a.Reconfigs > 0 || r.Design == DesignAdaptNoC || r.Design == DesignAdaptNoRL {
			fmt.Fprintf(&b, " kind=%v reconf=%d sel=[", a.FinalKind, a.Reconfigs)
			for k := 0; k < int(topology.NumSelectable); k++ {
				if k >= int(topology.NumKinds) && a.Selections[k] == 0 {
					continue // show the extension only when used
				}
				if k > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s:%.0f%%", Kind(k), 100*a.Selections[k])
			}
			b.WriteString("]")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
