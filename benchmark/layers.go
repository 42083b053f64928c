package main

import (
	"encoding/json"
	"time"

	"adaptnoc"
	"adaptnoc/internal/deadlock"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/serve"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/topology"
)

// probedSlices runs cycles on a probed Sim slice by slice. Every slice
// leaves four aggregated spans under the pass's span — one per layer, its
// busy time summed over the slice's cycles — and the per-slice accounts
// are returned for the metrics.
func (r *run) probedSlices(s *adaptnoc.Sim, p *probe, name string, cycles, slice adaptnoc.Cycle) (layers []layerTimes, walls []time.Duration) {
	pass := r.spans.begin(name, r.root, r.res.Workload)
	defer r.spans.end(pass)
	for done := adaptnoc.Cycle(0); done < cycles; done += slice {
		p.begin()
		start := time.Now()
		s.Run(slice)
		wall := time.Since(start)
		lt := p.take()
		layers = append(layers, lt)
		walls = append(walls, wall)
		r.spans.aggregate("sim.events", pass, r.res.Workload, start, wall, lt.Events, lt.Cycles)
		r.spans.aggregate("core.epoch", pass, r.res.Workload, start, wall, lt.Epoch, lt.Epochs)
		r.spans.aggregate("noc.tick", pass, r.res.Workload, start, wall, lt.Noc, lt.Cycles)
		r.spans.aggregate("system.tick", pass, r.res.Workload, start, wall, lt.System, lt.Cycles)
	}
	return layers, walls
}

func totalLayers(layers []layerTimes) (t layerTimes) {
	for _, l := range layers {
		t.add(l)
	}
	return t
}

// traceSim measures one window of simulated work three times from the same
// checkpointed state: untraced (the reference speed and digest), probed
// (the per-layer split and the exact counters), and probed with the tick
// sharded over a quarter of the window (the sharded network tick beside
// the serial one over the same cycles).
func (r *run) traceSim(blob []byte, cycles, slice adaptnoc.Cycle) {
	restore := func() *adaptnoc.Sim {
		s, err := adaptnoc.RestoreSim(blob)
		if !r.must(err, "RestoreSim") {
			return nil
		}
		return s
	}

	endPass := r.phase("pass.untraced")
	plain := restore()
	if plain == nil {
		return
	}
	from := plain.Kernel.Now()
	plainWall := sum(runSlices(plain, cycles, slice))
	_, plainDigest := r.closeSim(plain, from+cycles)
	endPass()

	s := restore()
	if s == nil {
		return
	}
	p := attachProbe(s)
	stats0, flits0, pkts0 := s.TickStats(), s.Net.TotalFlitsInjected, s.Net.TotalDelivered
	layers, walls := r.probedSlices(s, p, "pass.probed", cycles, slice)
	stats, flits, pkts := s.TickStats(), s.Net.TotalFlitsInjected-flits0, s.Net.TotalDelivered-pkts0
	res, digest := r.closeSim(s, from+cycles)
	r.check(digest == plainDigest, "traced digest %s differs from untraced %s", digest, plainDigest)
	r.info("results_digest", digest)
	r.ops(len(walls))

	lt, wall := totalLayers(layers), sum(walls)
	n := float64(cycles)
	perCycle := func(d time.Duration) float64 { return float64(d) / n }
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(lt.total()) }
	r.set("sim.events_ns_per_cycle", perCycle(lt.Events))
	r.set("noc.tick_ns_per_cycle", perCycle(lt.Noc))
	r.set("system.tick_ns_per_cycle", perCycle(lt.System))
	r.set("sim.events_share", share(lt.Events))
	r.set("noc.tick_share", share(lt.Noc))
	r.set("system.tick_share", share(lt.System))
	r.set("core.epoch_share", share(lt.Epoch))
	if lt.Epochs > 0 {
		r.set("core.epoch_us_per_epoch", us(lt.Epoch)/float64(lt.Epochs))
	}
	r.set("core.epochs", float64(lt.Epochs))
	r.set("probe.coverage_pct", 100*float64(lt.total())/float64(wall))
	r.set("probe.overhead_pct", 100*(float64(wall)/float64(plainWall)-1))

	routerTicks := float64(stats.RouterTicks - stats0.RouterTicks)
	routerSkips := float64(stats.RouterSkips - stats0.RouterSkips)
	channelTicks := float64(stats.ChannelTicks - stats0.ChannelTicks)
	channelSkips := float64(stats.ChannelSkips - stats0.ChannelSkips)
	r.set("noc.router_skip_rate", routerSkips/(routerTicks+routerSkips))
	r.set("noc.channel_skip_rate", channelSkips/(channelTicks+channelSkips))
	r.set("noc.router_ticks_per_cycle", routerTicks/n)
	r.set("noc.channel_ticks_per_cycle", channelTicks/n)
	r.set("noc.flits_per_cycle", float64(flits)/n)
	if routerTicks > 0 {
		r.set("noc.ns_per_router_tick", float64(lt.Noc)/routerTicks)
	}
	r.set("noc.ns_per_tile_cycle", float64(plainWall)/(n*float64(s.Net.Cfg.NumNodes())))
	r.set("system.pkts_per_kcycle", 1000*float64(pkts)/n)

	var reconfigs, delivered int64
	for _, a := range res.Apps {
		reconfigs += a.Reconfigs
		delivered += a.DeliveredPackets
	}
	r.set("fabric.reconfigs", float64(reconfigs))
	r.set("sim.latency_cycles", res.MeanLatency())
	r.set("sim.energy_pj_per_pkt", res.TotalEnergy.TotalPJ()/float64(max(delivered, 1)))

	// Sharded network tick over the window's first quarter, against the
	// serial tick's time over exactly those cycles.
	quarter := max(cycles/4/slice, 1)
	sharded := restore()
	if sharded == nil {
		return
	}
	sharded.SetShards(r.shardCount())
	defer sharded.StopWorkers()
	shardLayers, _ := r.probedSlices(sharded, attachProbe(sharded), "pass.probed.sharded", quarter*slice, slice)
	shardNoc, serialNoc := totalLayers(shardLayers).Noc, totalLayers(layers[:quarter]).Noc
	r.set("noc.shard_tick_ns_per_cycle", float64(shardNoc)/float64(quarter*slice))
	r.set("noc.shard_speedup", float64(serialNoc)/float64(shardNoc))
	r.info("shards", r.shardCount())
}

// timedRun restores blob and times cycles on it, with setup applied first.
func (r *run) timedRun(blob []byte, cycles adaptnoc.Cycle, setup func(*adaptnoc.Sim)) time.Duration {
	s, err := adaptnoc.RestoreSim(blob)
	if !r.must(err, "RestoreSim") {
		return 1
	}
	if setup != nil {
		setup(s)
	}
	start := time.Now()
	s.Run(cycles)
	return time.Since(start)
}

// overheadPct is the median extra time of with over without across three
// alternating pairs, in per cent.
func overheadPct(without, with func() time.Duration) float64 {
	var ratios []float64
	for i := 0; i < 3; i++ {
		a, b := without(), with()
		ratios = append(ratios, float64(b)/float64(a))
	}
	return 100 * (median(ratios) - 1)
}

// rigs calls single layers directly on state restored from the workload's
// warm checkpoint. Each rig is small and fixed; none feeds an end-to-end
// number. recordable is a configuration whose run can be recorded from
// cycle 0 (a replay's own configuration cannot).
func (r *run) rigs(blob []byte, recordable adaptnoc.Config) {
	defer r.phase("rigs")()
	s, err := adaptnoc.RestoreSim(blob)
	if !r.must(err, "RestoreSim") {
		return
	}
	now := s.Kernel.Now()
	tiles := s.Cfg.Apps[0].Region.Tiles(s.Net.Cfg.Width)
	// Run-based rigs use a window of about 60 ms of host time, whatever the
	// chip's size and load: long enough to time, short enough to repeat.
	const probeCycles = 250
	perCycle := r.timedRun(blob, probeCycles, nil) / probeCycles
	window := max(probeCycles, adaptnoc.Cycle(60*time.Millisecond/max(perCycle, 1)))

	policy, state := adaptnoc.DefaultPolicy(), make([]float64, rl.StateSize)
	r.set("rl.forward_ns", float64(perCall(func() { policy.Forward(state) })))
	r.set("obs.verify_us", us(perCall(func() { err = obs.Verify(s.Net, now) })))
	r.must(err, "obs.Verify on the warm state")
	r.set("deadlock.check_all_pairs_ms", ms(perCall(func() { err = deadlock.CheckAllPairs(s.Net, tiles) })))
	r.must(err, "deadlock.CheckAllPairs on the first application's region")
	r.set("topology.build_mesh_us", us(perCall(func() { topology.BuildMesh(noc.NewNetwork(s.Net.Cfg)) })))
	r.set("obs.ring_tracer_overhead_pct", overheadPct(
		func() time.Duration { return r.timedRun(blob, window, nil) },
		func() time.Duration {
			return r.timedRun(blob, window, func(t *adaptnoc.Sim) { t.Net.SetTracer(obs.NewRingTracer(1 << 16)) })
		}))

	// snap: full blob, restore, and a chain of five deltas a save interval
	// (1000 cycles, fewer on a large chip) apart.
	var full []byte
	r.set("snap.full_encode_ms", ms(perCall(func() { full, err = s.Checkpoint() })))
	r.must(err, "Checkpoint")
	r.set("snap.full_bytes", float64(len(full)))
	r.set("snap.restore_ms", ms(perCall(func() { _, err = adaptnoc.RestoreSim(full) })))
	r.must(err, "RestoreSim of a fresh blob")
	var w snap.Writer
	r.set("noc.snapshot_ms", ms(perCall(func() {
		w = snap.Writer{}
		err = s.Net.Snapshot(&w, s.Machine)
	})))
	r.must(err, "Network.Snapshot")
	r.set("noc.snapshot_bytes", float64(len(w.Bytes())))
	var frames [][]byte
	var deltaMS, deltaBytes []float64
	for i := 0; i < 5; i++ {
		s.Run(min(window, 1000))
		start := time.Now()
		frame, err := s.CheckpointDeltaChained()
		deltaMS = append(deltaMS, ms(time.Since(start)))
		if !r.must(err, "CheckpointDeltaChained") {
			return
		}
		frames = append(frames, frame)
		deltaBytes = append(deltaBytes, float64(len(frame)))
	}
	r.set("snap.delta_encode_ms", median(deltaMS))
	r.set("snap.delta_bytes", median(deltaBytes))
	r.set("snap.delta_size_ratio", median(deltaBytes)/float64(len(full)))
	var tip []byte
	r.set("snap.apply_chain_ms", ms(perCall(func() { tip, err = snap.ApplyChain(full, frames...) })))
	r.must(err, "ApplyChain")
	direct, err := s.Checkpoint()
	r.check(err == nil && string(tip) == string(direct), "base + 5 deltas differs from a full checkpoint of the same state")

	// power mutates its meter and Results flushes it; both run last on s.
	r.set("power.collect_region_us", us(perCall(func() { s.Meter.CollectRegionAt(tiles, s.Kernel.Now()) })))
	res := s.Results()
	var resJSON []byte
	r.set("adaptnoc.results_marshal_us", us(perCall(func() { resJSON, err = json.Marshal(res) })))
	r.must(err, "marshalling Results")
	r.set("adaptnoc.parse_results_us", us(perCall(func() { _, err = adaptnoc.ParseResults(resJSON) })))
	r.must(err, "ParseResults")

	// Wire layer: the configuration as a client would send it.
	cfgJSON, err := json.Marshal(s.Cfg)
	r.must(err, "marshalling Config")
	r.set("adaptnoc.parse_config_us", us(perCall(func() { _, err = adaptnoc.ParseConfig(cfgJSON) })))
	r.must(err, "ParseConfig")
	r.set("adaptnoc.canonical_us", us(perCall(func() { s.Cfg.Canonical() })))
	req := serve.Request{Config: s.Cfg, Cycles: 20000}
	reqJSON, err := json.Marshal(req)
	r.must(err, "marshalling Request")
	r.set("serve.parse_request_us", us(perCall(func() { _, err = serve.ParseRequest(reqJSON) })))
	r.must(err, "ParseRequest")
	canonical := req.Canonical()
	r.set("serve.request_key_us", us(perCall(func() { _, err = serve.RequestKey(canonical) })))
	r.must(err, "RequestKey")

	// traffic: the recorder's cost on a live run, then the codec on what it
	// recorded.
	var tr *adaptnoc.Trace
	live := func(record bool) time.Duration {
		t, err := adaptnoc.NewSim(recordable)
		if !r.must(err, "NewSim for the record rig") {
			return 1
		}
		if record {
			r.must(t.RecordTrace(), "RecordTrace")
		}
		start := time.Now()
		t.Run(window)
		took := time.Since(start)
		if record {
			tr, err = t.FinishTrace()
			r.must(err, "FinishTrace")
		}
		return took
	}
	r.set("traffic.record_overhead_pct", overheadPct(func() time.Duration { return live(false) }, func() time.Duration { return live(true) }))
	if tr == nil {
		return
	}
	var traceBlob []byte
	r.set("traffic.trace_encode_ms", ms(perCall(func() { traceBlob, err = adaptnoc.EncodeTrace(tr) })))
	r.must(err, "EncodeTrace")
	r.set("traffic.trace_bytes_per_kcycle", float64(len(traceBlob))/(float64(window)/1000))
	r.set("traffic.trace_decode_ms", ms(perCall(func() { _, err = adaptnoc.DecodeTrace(traceBlob) })))
	r.must(err, "DecodeTrace")
}
