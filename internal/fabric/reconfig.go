package fabric

import (
	"fmt"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/topology"
)

// Reconfigure switches a subNoC to a new topology at runtime using the
// staged protocol of Section II-C.1:
//
//  1. Notification wave — (M+N−2)×(Tr+Tl) cycles for the configuration
//     message to reach every router of the subNoC.
//  2. Drain — new packet streams are gated at the region's NIs while
//     in-flight flits complete under the old routing algorithm. (The
//     paper's Lysne-style staging adds R_mesh before removing R_old so
//     that the network is never unroutable; our drain achieves the same
//     safety with the same cost order, charged as gated-injection cycles.
//     Queued packets are never dropped — they wait at the NI and their
//     wait is visible as queuing latency.)
//  3. Setup — links are re-muxed, adaptable-link segments re-programmed,
//     NI attachments re-clustered, new tables installed; route computation
//     stalls for the Ts=14-cycle connection-setup window.
//  4. Injection reopens.
//
// Reconfigure is asynchronous: it returns immediately and the protocol
// runs as descriptor events, so a checkpoint can capture a switch at any
// stage and a restored kernel resumes it. The subNoC's State() is back to
// StateActive once injection reopens. A subNoC mid-reconfiguration
// rejects further Reconfigure calls.
func (f *Fabric) Reconfigure(sn *SubNoC, kind topology.Kind) error {
	if f.kernel == nil {
		return fmt.Errorf("fabric: runtime reconfiguration needs a kernel")
	}
	if f.frozen {
		// A frozen fabric (fault engine owns the wiring) turns topology
		// switches into silent no-ops: the epoch controller keeps running
		// and must not treat a fault-degraded chip as a fatal error.
		return nil
	}
	if sn.state != StateActive {
		return fmt.Errorf("fabric: subNoC %d is %v, cannot reconfigure", sn.ID, sn.state)
	}
	if kind == sn.Kind {
		return nil
	}
	sn.state = StateNotifying
	sn.Reconfigs++
	f.kernel.AfterOp(f.notificationWave(sn.Region), opReconfigDrain, int64(sn.ID), int64(kind), 0)
	return nil
}

// Kernel operation IDs owned by this package (range 200-299).
const (
	// opReconfigDrain gates subNoC args[0] and starts polling for
	// quiescence before switching to topology args[1].
	opReconfigDrain sim.OpID = 200 + iota
	// opReconfigPoll re-checks quiescence of subNoC args[0] for a switch
	// to args[1]; args[2] is the drain start cycle (deadline anchor).
	opReconfigPoll
	// opReconfigOpen ends the Ts setup window of subNoC args[0]; args[1]
	// is the cycle injection gating began.
	opReconfigOpen
)

// registerOps binds the reconfiguration protocol's descriptor events.
func (f *Fabric) registerOps() {
	f.kernel.RegisterOp(opReconfigDrain, func(now sim.Cycle, args [3]int64) {
		f.beginDrain(f.subnocByID(int(args[0])), topology.Kind(args[1]), now)
	})
	f.kernel.RegisterOp(opReconfigPoll, func(now sim.Cycle, args [3]int64) {
		f.pollDrain(f.subnocByID(int(args[0])), topology.Kind(args[1]), sim.Cycle(args[2]), now)
	})
	f.kernel.RegisterOp(opReconfigOpen, func(now sim.Cycle, args [3]int64) {
		f.openRegion(f.subnocByID(int(args[0])), sim.Cycle(args[1]), now)
	})
}

// subnocByID resolves an ID carried by a descriptor event.
func (f *Fabric) subnocByID(id int) *SubNoC {
	for _, sn := range f.subnocs {
		if sn.ID == id {
			return sn
		}
	}
	panic(fmt.Sprintf("fabric: unknown subNoC %d", id))
}

// notificationWave returns the cycles for the reconfiguration command to
// reach the farthest router of the region: (M+N−2)×(Tr+Tl).
func (f *Fabric) notificationWave(reg topology.Region) sim.Cycle {
	hops := reg.W + reg.H - 2
	if hops < 1 {
		hops = 1
	}
	return sim.Cycle(hops * (f.net.Cfg.RouterLatency + f.net.Cfg.LinkLatency))
}

// beginDrain gates injection and polls for quiescence.
func (f *Fabric) beginDrain(sn *SubNoC, kind topology.Kind, start sim.Cycle) {
	sn.state = StateDraining
	f.GateRegion(sn.Region, true)
	f.kernel.AfterOp(1, opReconfigPoll, int64(sn.ID), int64(kind), int64(start))
}

// pollDrain re-checks quiescence once per cycle and switches when the
// region has drained.
func (f *Fabric) pollDrain(sn *SubNoC, kind topology.Kind, start, now sim.Cycle) {
	if !f.drainComplete(sn, start, now) {
		f.kernel.AfterOp(1, opReconfigPoll, int64(sn.ID), int64(kind), int64(start))
		return
	}
	f.performSwitch(sn, kind, start)
}

// drainComplete reports quiescence, panicking past the drain deadline.
func (f *Fabric) drainComplete(sn *SubNoC, start, now sim.Cycle) bool {
	if f.regionQuiescent(sn.Region) && f.sharesQuiescent(sn) {
		return true
	}
	if now >= start+DrainTimeout {
		panic(fmt.Sprintf("fabric: subNoC %d failed to drain within %d cycles",
			sn.ID, DrainTimeout))
	}
	return false
}

// performSwitch executes the physical reconfiguration and schedules the
// injection reopening after the Ts setup window.
func (f *Fabric) performSwitch(sn *SubNoC, kind topology.Kind, gatedSince sim.Cycle) {
	sn.state = StateSettingUp
	f.switchTopology(sn, kind)
	f.kernel.AfterOp(sim.Cycle(f.cfg.SetupCycles), opReconfigOpen, int64(sn.ID), int64(gatedSince), 0)
}

// switchTopology is the physical part of a switch: shares touching this
// region (as requester or owner) are torn down with it and re-established
// under the new topology in the same cycle, so foreign-destination packets
// elsewhere never observe a routing hole. A share that cannot be
// re-established would strand queued foreign-MC traffic, so it is a hard
// error — findCrossing is designed to succeed for every topology pair
// (bridging powered-off routers). Checkpoint restore reuses this to replay
// a region's current topology onto a freshly built network.
func (f *Fabric) switchTopology(sn *SubNoC, kind topology.Kind) {
	shares := f.sharesTouching(sn.Region)
	for _, sh := range shares {
		f.unshare(sn, sh)
	}
	f.teardownRegion(sn.Region)
	f.configureRegion(sn, kind)
	for _, sh := range shares {
		if err := f.shareInternal(sh.requester, sh.mcTile, sh.owner); err != nil {
			panic(fmt.Sprintf("fabric: cannot re-establish MC share after switching subNoC %d to %v: %v",
				sn.ID, kind, err))
		}
	}
}

// openRegion ends the setup window: injection reopens and the gated time
// is charged to the subNoC.
func (f *Fabric) openRegion(sn *SubNoC, gatedSince, end sim.Cycle) {
	f.GateRegion(sn.Region, false)
	sn.state = StateActive
	sn.ReconfigCycles += int64(end - gatedSince)
}

// RegionOf exposes a subNoC's region tiles for observers.
func (f *Fabric) RegionOf(sn *SubNoC) []noc.NodeID {
	return sn.Region.Tiles(f.net.Cfg.Width)
}
