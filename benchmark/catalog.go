package main

// The catalogue: every workload and metric the benchmark knows, in the
// order they are printed. BENCHMARK.json at the repository root is this
// file rendered by `-manifest`; a test keeps the two identical.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run)
}

// runSeconds is the measuring time the driver asks for; cycle and request
// counts are sized so that a timed section lasts about this long on the
// 2-core reference host.
const runSeconds = 5

// Every workload reports every end-to-end metric; what "the operation" is
// for op_ms_* is the workload's own (README.md, "Workloads").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_kcycle", Unit: "count", Better: "lower", Bound: 0.05},
}

// exactMetrics are model outputs and byte counts: deterministic for a
// seed, so -compare demands equality between runs of equal seeds instead
// of applying a bound.
var exactMetrics = map[string]bool{
	"sim.latency_cycles":          true,
	"sim.energy_pj_per_pkt":       true,
	"snap.chain_bytes_per_kcycle": true,
	"fleet.items":                 true,
}

// Per-layer metrics are named <module>.<metric>. A traced run reports all
// of them; a layer the workload never enters reads 0 there.
var perLayer = []metricDef{
	// Probe: host time of one simulated cycle, split from outside.
	{Name: "sim.events_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.tick_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "system.tick_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "core.epoch_us_per_epoch", Unit: "us", Better: "lower"},
	{Name: "sim.events_share", Unit: "%", Better: "lower"},
	{Name: "noc.tick_share", Unit: "%", Better: "lower"},
	{Name: "system.tick_share", Unit: "%", Better: "lower"},
	{Name: "core.epoch_share", Unit: "%", Better: "lower"},
	{Name: "probe.coverage_pct", Unit: "%", Better: "higher"},
	{Name: "probe.overhead_pct", Unit: "%", Better: "lower"},
	// Exact counters through public accessors.
	{Name: "noc.router_skip_rate", Unit: "ratio", Better: "higher"},
	{Name: "noc.channel_skip_rate", Unit: "ratio", Better: "higher"},
	{Name: "noc.router_ticks_per_cycle", Unit: "count", Better: "lower"},
	{Name: "noc.channel_ticks_per_cycle", Unit: "count", Better: "lower"},
	{Name: "noc.flits_per_cycle", Unit: "count", Better: "higher"},
	{Name: "noc.ns_per_router_tick", Unit: "ns", Better: "lower"},
	{Name: "noc.ns_per_tile_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.shard_tick_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "system.pkts_per_kcycle", Unit: "count", Better: "higher"},
	{Name: "fabric.reconfigs", Unit: "count", Better: "lower"},
	{Name: "core.epochs", Unit: "count", Better: "lower"},
	// Model time: what the simulated chip did, not how fast the host ran.
	{Name: "sim.latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim.energy_pj_per_pkt", Unit: "pJ", Better: "lower"},
	// Direct-call rigs on the workload's warm state.
	{Name: "rl.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "power.collect_region_us", Unit: "us", Better: "lower"},
	{Name: "deadlock.check_all_pairs_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.verify_us", Unit: "us", Better: "lower"},
	{Name: "obs.ring_tracer_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "topology.build_mesh_us", Unit: "us", Better: "lower"},
	{Name: "snap.full_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.full_bytes", Unit: "bytes", Better: "lower"},
	{Name: "snap.delta_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.delta_bytes", Unit: "bytes", Better: "lower"},
	{Name: "snap.delta_size_ratio", Unit: "ratio", Better: "lower"},
	{Name: "snap.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.apply_chain_ms", Unit: "ms", Better: "lower"},
	{Name: "noc.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "noc.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "traffic.trace_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.trace_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.trace_bytes_per_kcycle", Unit: "bytes", Better: "lower"},
	{Name: "traffic.record_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "adaptnoc.parse_config_us", Unit: "us", Better: "lower"},
	{Name: "adaptnoc.canonical_us", Unit: "us", Better: "lower"},
	{Name: "adaptnoc.results_marshal_us", Unit: "us", Better: "lower"},
	{Name: "adaptnoc.parse_results_us", Unit: "us", Better: "lower"},
	{Name: "serve.parse_request_us", Unit: "us", Better: "lower"},
	{Name: "serve.request_key_us", Unit: "us", Better: "lower"},
	// Checkpoint chain on disk (ckpt_mixed16).
	{Name: "snap.save_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snap.save_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "snap.chain_bytes_per_kcycle", Unit: "bytes", Better: "lower"},
	{Name: "snap.restore_file_ms_p50", Unit: "ms", Better: "lower"},
	// Service layers (serve_mix, fleet_suite).
	{Name: "serve.healthz_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "serve.direct_run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_req_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cached_req_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.cached_req_us_p95", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "exp.suite_local_s", Unit: "s", Better: "lower"},
	{Name: "runner.fanout_speedup", Unit: "ratio", Better: "higher"},
	{Name: "fleet.suite_s", Unit: "s", Better: "lower"},
	{Name: "fleet.items", Unit: "count", Better: "lower"},
	{Name: "fleet.overhead_ms_per_item", Unit: "ms", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.delta_shadows", Unit: "count", Better: "lower"},
}

var workloads = []workloadDef{
	{Name: "mesh8_mixed", run: runMesh8Mixed,
		Why: "saturated 8x8 baseline mesh: noc does about 3/4 of the work, so a router/VC/arena gain must show here"},
	{Name: "adapt8_rl", run: runAdapt8RL,
		Why: "the paper's design on the same load: reconfigured subNoCs plus fabric, core, rl and power; its model latency/energy over mesh8_mixed is Fig. 7/11"},
	{Name: "mesh8_idle", run: runMesh8Idle,
		Why: "bypass: ~99% of router/channel ticks are skipped, so the kernel, system+traffic and work lists dominate; a router-pipeline gain must read no change"},
	{Name: "mesh32_tiled", run: runMesh32Tiled,
		Why: "32x32 working set far beyond cache and the only run of the sharded tick and its barrier; serial pass is sim_cycles_per_s, sharded pass is op_ms_*"},
	{Name: "trace_replay", run: runTraceReplay,
		Why: "same system/noc path fed by TraceSource (release heap, dependency retire), the one allocating hot path; decode set-up is kept apart from steady state"},
	{Name: "ckpt_mixed16", run: runCkptMixed16,
		Why: "snap plus every layer's Snapshot/Restore: an active 8x8 quarter beside a quiescent 16x16 rest, saves to disk between run slices, restores from base+deltas"},
	{Name: "serve_mix", run: runServeMix,
		Why: "the service user's view: cold requests wrap a small sim in decode/validate/key/queue/encode, cached re-submissions are pure serve and wire layer"},
	{Name: "fleet_suite", run: runFleetSuite,
		Why: "whole stack fleet -> serve -> runner -> Sim across all seven designs; the difference to a local suite run is the control-plane cost per item"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

// perLayerDef is metricDef without the bound key, which per-layer entries
// of BENCHMARK.json must not carry.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	return m
}
