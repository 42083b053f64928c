package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptnoc"
	"adaptnoc/internal/obs"
)

// The single-Sim workloads. Each times a fixed amount of simulated work —
// cycles = rate x seconds, a whole number of slices — so counts, model
// results and digests repeat exactly for a seed; the rates below are what
// the seed code sustains on the reference host, which makes a timed
// section last about -seconds there.
//
// The host is shared: other tenants slow a process down for seconds at a
// time, and never speed it up. So a timed section is not one long run but
// `passes` runs of the same work from the same checkpointed state, sliced
// alike, and each slice's time is the fastest of its readings across the
// passes — the reading least disturbed. Set-up is sampled between the
// passes for the same reason: spread over the run, not bunched at its start.

const (
	epochCycles = 10000
	passes      = 5
)

// simSize sizes one workload's timed section.
type simSize struct {
	warm  adaptnoc.Cycle // untimed cycles before the state is checkpointed
	rate  float64        // timed cycles per requested second, all passes together
	slice adaptnoc.Cycle // cycles per timed operation
}

// passCycles is the length of one pass when seconds are spent on the
// whole timed section: a whole number of slices, at least two.
func (z simSize) passCycles(seconds float64) adaptnoc.Cycle {
	n := adaptnoc.Cycle(math.Round(z.rate * seconds / passes / float64(z.slice)))
	return max(n, 2) * z.slice
}

func mixedConfig(d adaptnoc.Design, seed uint64) adaptnoc.Config {
	cfg := adaptnoc.Config{Design: d, Apps: adaptnoc.DefaultMixed(0), Seed: seed, EpochCycles: epochCycles}
	if d == adaptnoc.DesignAdaptNoC {
		cfg.RL.Pretrained = adaptnoc.DefaultPolicy()
	}
	return cfg
}

func runMesh8Mixed(r *run) {
	runPhaseSim(r, mixedConfig(adaptnoc.DesignBaseline, r.seed), simSize{warm: 5000, rate: 55000, slice: 500})
}

func runAdapt8RL(r *run) {
	runPhaseSim(r, mixedConfig(adaptnoc.DesignAdaptNoC, r.seed), simSize{warm: 5000, rate: 55000, slice: 500})
}

func runMesh8Idle(r *run) {
	reg := adaptnoc.Region{X: 0, Y: 0, W: 4, H: 4}
	cfg := adaptnoc.Config{
		Design:      adaptnoc.DesignBaseline,
		Apps:        []adaptnoc.AppSpec{{Profile: "blackscholes", Region: reg, MCTiles: adaptnoc.BlockMCs(reg)}},
		Seed:        r.seed,
		EpochCycles: epochCycles,
	}
	runPhaseSim(r, cfg, simSize{warm: 5000, rate: 800000, slice: 5000})
}

// sampleSetup builds the system under test afresh n times and adds the
// build times to the run's set-up samples, whose median is setup_s. The
// run's very first build is not measured: it pays one-time initialisation
// no later one sees. Every build but the last is handed to discard.
func sampleSetup[T any](r *run, n int, build func() (T, error), discard func(T)) (last T, ok bool) {
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := build()
		took := time.Since(start)
		if !r.must(err, "set-up") {
			return last, false
		}
		last = v
		if r.setupPrimed {
			r.setups = append(r.setups, took.Seconds())
		}
		r.setupPrimed = true
	}
	return last, true
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeapMB is the heap still reachable after a collection; the caller
// keeps what it measures alive across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runSlices advances s by total cycles, timing each slice.
func runSlices(s *adaptnoc.Sim, total, slice adaptnoc.Cycle) []time.Duration {
	walls := make([]time.Duration, 0, total/slice)
	for done := adaptnoc.Cycle(0); done < total; done += slice {
		start := time.Now()
		s.Run(slice)
		walls = append(walls, time.Since(start))
	}
	return walls
}

// fastestAcross folds equally sliced passes over the same work into one
// profile: slice i's time is the fastest of its readings.
func fastestAcross(walls [][]time.Duration) []time.Duration {
	profile := append([]time.Duration(nil), walls[0]...)
	for _, pass := range walls[1:] {
		for i, d := range pass {
			profile[i] = min(profile[i], d)
		}
	}
	return profile
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// reportEndToEnd closes an untraced run's books: throughput over the timed
// wall, the operation's median and tail, allocations per simulated
// kilocycle, and the live heap with keep still reachable.
func (r *run) reportEndToEnd(cycles adaptnoc.Cycle, timed time.Duration, ops []time.Duration, allocs uint64, keep ...any) {
	asc := sorted(millis(ops))
	tail := tailPercentile(len(asc))
	r.set("sim_cycles_per_s", float64(cycles)/timed.Seconds())
	r.set("op_ms_p50", quantile(asc, 0.5))
	r.set("op_ms_tail", quantile(asc, tail))
	r.set("allocs_per_kcycle", float64(allocs)/(float64(cycles)/1000))
	r.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(keep)
	r.info("op_samples", len(asc))
	r.info("op_tail_percentile", 100*tail)
	r.info("timed_cycles", int64(cycles))
	r.info("timed_s", timed.Seconds())
	r.ops(len(ops))
}

// closeSim checks the network's invariants, takes the Results (which
// flushes the energy windows, so once per Sim) and digests them.
func (r *run) closeSim(s *adaptnoc.Sim, wantCycles adaptnoc.Cycle) (adaptnoc.Results, string) {
	r.must(obs.Verify(s.Net, s.Kernel.Now()), "obs.Verify at the end of the run")
	res := s.Results()
	if wantCycles > 0 {
		r.check(res.Cycles == wantCycles, "ran %d cycles, want %d", res.Cycles, wantCycles)
	}
	var delivered int64
	for _, a := range res.Apps {
		delivered += a.DeliveredPackets
	}
	r.check(delivered > 0, "no packet was delivered")
	blob, err := json.Marshal(res)
	r.must(err, "marshalling Results")
	digest := sha256.Sum256(blob)
	return res, hex.EncodeToString(digest[:])
}

// sameDigests checks that passes over the same work ended alike.
func (r *run) sameDigests(digests []string) {
	for _, d := range digests[1:] {
		r.check(d == digests[0], "identical passes ended on different digests %s and %s", digests[0], d)
	}
}

// passResult is what timedPasses measured at one shard count.
type passResult struct {
	profile []time.Duration // per slice, the fastest reading across the passes
	allocs  uint64          // of one pass
	last    *adaptnoc.Sim   // the last pass's Sim
	digest  string          // the digest every pass ended on
}

// timedPasses runs the same cycles `passes` times at each of the given
// shard counts, every time on a Sim restored from blob, taking the shard
// counts in turn within a pass so that each one's readings are spread over
// the whole section. between (if any) is called ahead of each pass.
func (r *run) timedPasses(blob []byte, cycles, slice adaptnoc.Cycle, between func() bool, shardCounts ...int) ([]passResult, bool) {
	out := make([]passResult, len(shardCounts))
	walls := make([][][]time.Duration, len(shardCounts))
	for p := 0; p < passes; p++ {
		if between != nil && !between() {
			return nil, false
		}
		for k, shards := range shardCounts {
			s, err := adaptnoc.RestoreSim(blob)
			if !r.must(err, "RestoreSim") {
				return nil, false
			}
			from := s.Kernel.Now()
			s.SetShards(shards)
			before := mallocs()
			walls[k] = append(walls[k], runSlices(s, cycles, slice))
			out[k].allocs += (mallocs() - before) / passes
			s.StopWorkers()
			_, digest := r.closeSim(s, from+cycles)
			if p > 0 {
				r.check(digest == out[k].digest, "identical passes ended on different digests %s and %s", out[k].digest, digest)
			}
			out[k].last, out[k].digest = s, digest
		}
	}
	for k := range out {
		out[k].profile = fastestAcross(walls[k])
	}
	return out, true
}

// warmState builds the configuration, warms it and returns the checkpoint
// every pass starts from, and the function that samples set-up — fresh
// builds of the same configuration — between the passes of an untraced run.
func (r *run) warmState(cfg adaptnoc.Config, warm adaptnoc.Cycle, setupsPerPass int) (blob []byte, between func() bool, ok bool) {
	build := func() (*adaptnoc.Sim, error) { return adaptnoc.NewSim(cfg) }
	s, err := build()
	if !r.must(err, "NewSim") {
		return nil, nil, false
	}
	s.Run(warm)
	blob, err = s.Checkpoint()
	between = func() bool {
		_, ok := sampleSetup(r, setupsPerPass, build, nil)
		return ok
	}
	return blob, between, r.must(err, "warm checkpoint")
}

// runPhaseSim is the plain workload shape: build, warm up, time a window
// of simulated work.
func runPhaseSim(r *run, cfg adaptnoc.Config, z simSize) {
	blob, between, ok := r.warmState(cfg, z.warm, 40)
	if !ok {
		return
	}
	cycles := z.passCycles(r.seconds)
	if r.traced {
		r.traceSim(blob, 2*cycles, z.slice)
		r.rigs(blob, cfg)
		return
	}
	res, ok := r.timedPasses(blob, cycles, z.slice, between, 1)
	if !ok {
		return
	}
	r.reportEndToEnd(cycles, sum(res[0].profile), res[0].profile, res[0].allocs, res[0].last, blob)
	r.info("results_digest", res[0].digest)
}

// shardCount is how many row bands the sharded passes tick: one per core
// up to four, and two even on one core — time-sliced shards still measure
// the barrier, where a second serial pass would only record 1.0x.
func (r *run) shardCount() int { return max(2, r.procs) }

func runMesh32Tiled(r *run) {
	cfg := adaptnoc.Config{
		Design: adaptnoc.DesignBaseline, Width: 32, Height: 32,
		Apps: adaptnoc.TiledMixed(32, 32, 0), Seed: r.seed, EpochCycles: epochCycles,
	}
	// The requested time is split between the serial and the sharded
	// passes, so the rate is half of what the host sustains.
	z := simSize{warm: 2000, rate: 800, slice: 5}
	blob, between, ok := r.warmState(cfg, z.warm, 8)
	if !ok {
		return
	}
	cycles := z.passCycles(r.seconds)
	if r.traced {
		r.traceSim(blob, 2*cycles, z.slice)
		r.rigs(blob, cfg)
		return
	}
	res, ok := r.timedPasses(blob, cycles, z.slice, between, 1, r.shardCount())
	if !ok {
		return
	}
	res[0].last = nil // one Sim, the sharded pass's, is what the live heap counts
	serial, sharded := res[0], res[1]
	r.check(serial.digest == sharded.digest, "sharded digest %s differs from serial %s", sharded.digest, serial.digest)
	r.reportEndToEnd(cycles, sum(serial.profile), sharded.profile, (serial.allocs+sharded.allocs)/2, sharded.last, blob)
	r.info("results_digest", serial.digest)
	r.info("shards", r.shardCount())
	r.info("sharded_cycles_per_s", float64(cycles)/sum(sharded.profile).Seconds())
}

// recordTrace runs the mixed baseline for the given cycles with the
// recorder armed and returns the ADNOCTRC blob.
func (r *run) recordTrace(cycles adaptnoc.Cycle) (blob []byte, encode time.Duration, ok bool) {
	defer r.phase("prepare.record")()
	rec, err := adaptnoc.NewSim(mixedConfig(adaptnoc.DesignBaseline, r.seed))
	if !r.must(err, "NewSim for recording") || !r.must(rec.RecordTrace(), "RecordTrace") {
		return nil, 0, false
	}
	rec.Run(cycles)
	tr, err := rec.FinishTrace()
	if !r.must(err, "FinishTrace") {
		return nil, 0, false
	}
	start := time.Now()
	blob, err = adaptnoc.EncodeTrace(tr)
	return blob, time.Since(start), r.must(err, "EncodeTrace")
}

// replaySim is the trace workload's whole set-up: decode the blob into
// AppSpecs on the recorded grid and assemble the Sim around them.
func replaySim(blob []byte, seed uint64) (*adaptnoc.Sim, error) {
	specs, w, h, err := adaptnoc.TraceWorkload(blob)
	if err != nil {
		return nil, err
	}
	return adaptnoc.NewSim(adaptnoc.Config{
		Design: adaptnoc.DesignBaseline, Apps: specs, Width: w, Height: h, Seed: seed, EpochCycles: epochCycles,
	})
}

func runTraceReplay(r *run) {
	z := simSize{rate: 75000, slice: 500}
	if r.traced {
		// A third of the untraced recording: every restore in the passes and
		// rigs below decodes the trace once per replayed application.
		recorded := z.passCycles(r.seconds / 3)
		blob, encode, ok := r.recordTrace(recorded)
		if !ok {
			return
		}
		s, err := replaySim(blob, r.seed)
		if !r.must(err, "replay set-up") {
			return
		}
		start, err := s.Checkpoint()
		if !r.must(err, "checkpoint of the replay's start") {
			return
		}
		// Stay inside the recording: the replay's tail is an emptying network.
		r.traceSim(start, recorded*4/5/z.slice*z.slice, z.slice)
		r.rigs(start, mixedConfig(adaptnoc.DesignBaseline, r.seed))
		// The codec numbers that count here are those of the workload's own
		// trace, not of the rigs' short recording.
		r.set("traffic.trace_encode_ms", ms(encode))
		r.set("traffic.trace_bytes_per_kcycle", float64(len(blob))/(float64(recorded)/1000))
		r.set("traffic.trace_decode_ms", ms(perCall(func() { _, err = adaptnoc.DecodeTrace(blob) })))
		r.must(err, "DecodeTrace")
		return
	}

	recorded := z.passCycles(r.seconds)
	blob, _, ok := r.recordTrace(recorded)
	if !ok {
		return
	}
	r.info("trace_bytes", len(blob))
	// A replay consumes its Sim, so every pass sets up afresh — which is
	// what set-up means here: decode plus assembly.
	var (
		walls   [][]time.Duration
		cycles  adaptnoc.Cycle
		allocs  uint64
		digests []string
		last    *adaptnoc.Sim
	)
	for p := 0; p < passes; p++ {
		r.setupPrimed = true // each of the few set-ups here is a whole decode; none is a throwaway
		s, ok := sampleSetup(r, 1, func() (*adaptnoc.Sim, error) { return replaySim(blob, r.seed) }, nil)
		if !ok {
			return
		}
		var pass []time.Duration
		before := mallocs()
		finished := false
		for !finished && s.Kernel.Now() < 4*recorded {
			start := time.Now()
			finished = s.RunUntilFinished(z.slice)
			pass = append(pass, time.Since(start))
		}
		allocs += mallocs() - before
		r.check(finished, "replay of %d recorded cycles did not drain within %d", recorded, 4*recorded)
		_, digest := r.closeSim(s, 0)
		walls, digests, cycles, last = append(walls, pass), append(digests, digest), s.Kernel.Now(), s
	}
	r.sameDigests(digests)
	for _, pass := range walls[1:] {
		if len(pass) != len(walls[0]) {
			r.check(false, "identical replays took %d and %d slices", len(walls[0]), len(pass))
			return
		}
	}
	profile := fastestAcross(walls)
	r.reportEndToEnd(cycles, sum(profile), profile, allocs/passes, last, blob)
	r.info("results_digest", digests[0])
}

// ckptConfig puts the mixed workload's three regions in the top-left 8x8
// of a 16x16 Adapt-NoC fabric and leaves the rest of the chip unallocated.
// The topologies are the static ones (adapt-norl): the seed code cannot
// restore an adapt-noc checkpoint taken after the policy has moved a
// subNoC through tree or torus and back ("router 4 has 9 ports, checkpoint
// 10"; README.md, "First readings"), and a workload must be one on which
// no operation fails.
func ckptConfig(seed uint64) adaptnoc.Config {
	cfg := mixedConfig(adaptnoc.DesignAdaptNoRL, seed)
	cfg.Width, cfg.Height = 16, 16
	for i := range cfg.Apps {
		cfg.Apps[i].MCTiles = adaptnoc.BlockMCsOn(cfg.Apps[i].Region, 16)
	}
	return cfg
}

// chainBytes is the size of a ChainWriter's base plus delta log.
func chainBytes(path string) (base, log int64) {
	if fi, err := os.Stat(path); err == nil {
		base = fi.Size()
	}
	if fi, err := os.Stat(path + ".delta"); err == nil {
		log = fi.Size()
	}
	return base, log
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

func runCkptMixed16(r *run) {
	const sliceCycles, warm = 1000, 5000
	cfg := ckptConfig(r.seed)
	// Set-up is measured below, as a restore of a chain; NewSim is not it.
	blob, _, ok := r.warmState(cfg, warm, 0)
	if !ok {
		return
	}

	if r.traced {
		saves := max(4, int(math.Round(25*r.seconds)))
		r.traceSim(blob, adaptnoc.Cycle(saves)*sliceCycles, sliceCycles)
		r.rigs(blob, cfg)

		defer r.phase("snap.save_loop")()
		s, err := adaptnoc.RestoreSim(blob)
		if !r.must(err, "RestoreSim") {
			return
		}
		path := filepath.Join(r.tmp, "sim.ckpt")
		writer := &adaptnoc.ChainWriter{Path: path}
		var saveMS []float64
		var written, lastLog int64
		for i := 0; i < saves; i++ {
			s.Run(sliceCycles)
			start := time.Now()
			err := writer.Save(s)
			saveMS = append(saveMS, ms(time.Since(start)))
			if !r.must(err, "ChainWriter.Save") {
				return
			}
			// A save either appends one frame to the log or rewrites the base
			// and drops the log.
			base, log := chainBytes(path)
			if log > lastLog {
				written += log - lastLog
			} else {
				written += base
			}
			lastLog = log
		}
		asc := sorted(saveMS)
		r.set("snap.save_ms_p50", quantile(asc, 0.5))
		r.set("snap.save_ms_p95", quantile(asc, 0.95))
		r.set("snap.chain_bytes_per_kcycle", float64(written)/float64(saves))
		r.set("snap.restore_file_ms_p50", ms(perCall(func() { _, err = adaptnoc.RestoreSimFromFile(path) })))
		r.must(err, "RestoreSimFromFile")
		return
	}

	// Each pass saves after every slice into a chain of its own: a full
	// base first, delta frames after it.
	saves := max(4, int(math.Round(50*r.seconds/passes)))
	cycles := adaptnoc.Cycle(saves) * sliceCycles
	asideAt := saves * 3 / 4
	var runWalls, saveWalls [][]time.Duration
	var allocs uint64
	var digests []string
	var path string
	var last, restored *adaptnoc.Sim
	// Set-up here is the path a user of checkpoints takes to a runnable
	// Sim: a finished chain's base plus every delta.
	restoreChain := func() bool {
		var ok bool
		restored, ok = sampleSetup(r, 3, func() (*adaptnoc.Sim, error) { return adaptnoc.RestoreSimFromFile(path) }, nil)
		return ok
	}
	for p := 0; p < passes; p++ {
		if p > 0 && !restoreChain() {
			return
		}
		live, err := adaptnoc.RestoreSim(blob)
		if !r.must(err, "RestoreSim") {
			return
		}
		path = filepath.Join(r.tmp, fmt.Sprintf("pass%d.ckpt", p))
		writer := &adaptnoc.ChainWriter{Path: path}
		var runs, savesTook []time.Duration
		before := mallocs()
		for i := 0; i < saves; i++ {
			start := time.Now()
			live.Run(sliceCycles)
			mid := time.Now()
			err := writer.Save(live)
			end := time.Now()
			runs, savesTook = append(runs, mid.Sub(start)), append(savesTook, end.Sub(mid))
			if !r.must(err, "ChainWriter.Save") {
				return
			}
			if i+1 == asideAt {
				// Keep the chain as it stands now for the continue check below.
				r.must(copyFile(path+".aside", path), "copying the base aside")
				r.must(copyFile(path+".aside.delta", path+".delta"), "copying the delta log aside")
			}
		}
		allocs += mallocs() - before
		_, digest := r.closeSim(live, warm+cycles)
		runWalls, saveWalls, digests, last = append(runWalls, runs), append(saveWalls, savesTook), append(digests, digest), live
	}
	r.sameDigests(digests)
	runProfile, saveProfile := fastestAcross(runWalls), fastestAcross(saveWalls)
	r.reportEndToEnd(cycles, sum(runProfile)+sum(saveProfile), saveProfile, allocs/passes, last)
	r.info("results_digest", digests[0])

	if !restoreChain() {
		return
	}
	_, restoredDigest := r.closeSim(restored, warm+cycles)
	r.check(restoredDigest == digests[0], "restored chain digests to %s, the live Sim to %s", restoredDigest, digests[0])

	resumed, err := adaptnoc.RestoreSimFromFile(path + ".aside")
	if !r.must(err, "restoring the chain kept aside") {
		return
	}
	at := warm + adaptnoc.Cycle(asideAt)*sliceCycles
	r.check(resumed.Kernel.Now() == at, "chain kept aside restores to cycle %d, want %d", resumed.Kernel.Now(), at)
	resumed.Run(warm + cycles - resumed.Kernel.Now())
	_, resumedDigest := r.closeSim(resumed, warm+cycles)
	r.check(resumedDigest == digests[0], "restore-then-continue digests to %s, the uninterrupted run to %s", resumedDigest, digests[0])
}
