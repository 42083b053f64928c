// Command adaptnoc-sim runs a single simulation configuration and prints
// per-application and energy results.
//
// Usage:
//
//	adaptnoc-sim [-design name] [-gpu profile] [-cpu1 profile] [-cpu2 profile]
//	             [-apps "bfs:0,0,4,8:tree; canneal:4,0,4,4:cmesh"]
//	             [-cycles N | -budget N] [-epoch N] [-seed N] [-share N]
//	             [-record-trace out.trc] [-trace file.trc]
//	             [-flittrace out.json] [-traceformat chrome|ring] [-tracecap N]
//	             [-hist] [-verify N] [-pprof addr]
//	             [-epochtrace] [-stats] [-layout] [-json]
//	             [-checkpoint file] [-checkpoint-every N] [-resume file]
//	             [-faults N|file.json] [-fault-seed N]
//
// -checkpoint saves the complete simulation state to a file as the run
// advances (every -checkpoint-every cycles; 0 saves only at the end).
// -resume restores such a file — the checkpoint embeds its own
// configuration, so the workload flags are ignored — and runs the
// remaining cycles; the results are byte-identical to an uninterrupted
// run.
//
// -record-trace captures the run into an ADNOCTRC dependency trace:
// every packet with the inter-packet dependencies and compute gaps that
// produced it. -trace replays such a file in place of the synthetic
// workload — the recorded placements rebuild the app regions, the run
// advances until the trace drains, and replay self-paces (a slower
// fabric delays dependents instead of injecting an impossible schedule).
// Recording assumes a cycle-0 start, so -record-trace cannot combine
// with -resume.
//
// -faults injects a fault campaign: an integer generates that many seeded
// random link/router/VC failures over the run window (-fault-seed pins
// the campaign independently of the traffic seed), anything else is read
// as a JSON schedule file (an array of {cycle, kind, router, port, vc,
// repair} events). Combined with -resume, the schedule's strike cycles
// are relative to the resume point, so one warmed checkpoint replays
// under many campaigns.
//
// Designs: baseline, oscar, shortcut, ftby, ftby-pg, adapt-norl, adapt-noc.
// Topologies for -apps: mesh, cmesh, torus, tree, torus+tree.
//
// -flittrace captures every flit's lifecycle. The default chrome format
// loads directly into Perfetto (ui.perfetto.dev) or chrome://tracing; the
// ring format is a compact fixed-record binary that keeps only the most
// recent -tracecap events. -hist prints per-vnet latency percentiles and
// the busiest routers/links. -verify N runs the flit-conservation and
// credit-balance invariant checker every N cycles.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"adaptnoc"
	"adaptnoc/internal/fault"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/traffic"
)

// errUsage reports a flag the parser rejected; the flag set has already
// printed the reason and the usage text.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		code := 2
		if err != errUsage {
			fmt.Fprintln(os.Stderr, "adaptnoc-sim:", err)
			code = 1
		}
		os.Exit(code)
	}
}

// faultSchedule resolves the -faults flag: an integer generates that many
// seeded random faults over the run window; anything else names a JSON
// schedule file.
func faultSchedule(spec string, faultSeed, seed uint64, w, h int, cycles int64) ([]fault.Event, error) {
	if n, err := strconv.Atoi(spec); err == nil {
		if n < 0 {
			return nil, fmt.Errorf("-faults %d: fault count cannot be negative", n)
		}
		if faultSeed == 0 {
			faultSeed = seed + 1
		}
		return fault.Generate(n, faultSeed, w, h, cycles), nil
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	return fault.ParseSchedule(data)
}

// run is the whole command: it parses args, simulates, and writes results
// to stdout and diagnostics to stderr. A returned error is what main
// prints after "adaptnoc-sim:".
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("adaptnoc-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := fs.String("design", "adapt-noc", "network design to simulate")
	gpu := fs.String("gpu", "bfs", "GPU application profile (4x8 region)")
	cpu1 := fs.String("cpu1", "canneal", "first CPU application profile (4x4 region)")
	cpu2 := fs.String("cpu2", "ferret", "second CPU application profile (4x4 region)")
	cycles := fs.Int64("cycles", 500000, "cycles to simulate (latency mode)")
	budget := fs.Int64("budget", 0, "per-core instruction budget (execution-time mode)")
	epoch := fs.Int("epoch", 50000, "control epoch in cycles")
	seed := fs.Uint64("seed", 2021, "random seed")
	share := fs.Int("share", 0, "foreign MCs shared to the GPU application")
	appsFlag := fs.String("apps", "", `explicit workload, e.g. "bfs:0,0,4,8:tree; canneal:4,0,4,4:cmesh" (overrides -gpu/-cpu1/-cpu2)`)
	traceFile := fs.String("flittrace", "", "write a flit-level observability trace to this file")
	replayTrace := fs.String("trace", "", "replay an ADNOCTRC dependency trace (recorded with -record-trace) in place of the synthetic workload")
	recordTrace := fs.String("record-trace", "", "record the run into an ADNOCTRC dependency-trace file")
	traceFormat := fs.String("traceformat", "chrome", "flit-trace format: chrome (Perfetto JSON) or ring (binary ring buffer)")
	traceCap := fs.Int("tracecap", 0, "max trace events kept (0 = format default)")
	hist := fs.Bool("hist", false, "print per-vnet latency histograms and hotspot counters")
	verifyEvery := fs.Int64("verify", 0, "run the invariant checker every N cycles (0 = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	epochTrace := fs.Bool("epochtrace", false, "print the per-epoch controller trace (Adapt designs)")
	stats := fs.Bool("stats", false, "print tick work-list statistics (idle-skip rates)")
	layout := fs.Bool("layout", false, "render each subNoC's final physical configuration")
	jsonOut := fs.Bool("json", false, "emit results as JSON")
	listProfiles := fs.Bool("profiles", false, "list available application profiles and exit")
	width := fs.Int("width", 0, "chip width in tiles (0 = the paper's 8; multiples of 8 tile the default workload)")
	height := fs.Int("height", 0, "chip height in tiles (0 = the paper's 8)")
	shards := fs.Int("shards", 1, "network tick shards: 1 = serial, k > 1 = k parallel row bands")
	checkpoint := fs.String("checkpoint", "", "save the simulation state to this file as the run advances")
	checkpointEvery := fs.Int64("checkpoint-every", 0, "cycles between checkpoint saves (0 = only at the end)")
	resumeFrom := fs.String("resume", "", "restore this checkpoint and continue (workload flags are ignored)")
	faults := fs.String("faults", "", "fault schedule: an integer generates that many seeded random faults, anything else is read as a JSON schedule file")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for generated fault schedules (0 = derive from -seed)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return errUsage
	}
	if *shards < 1 {
		fmt.Fprintln(stderr, "adaptnoc-sim: -shards must be at least 1")
		return errUsage
	}

	if *listProfiles {
		fmt.Fprintln(stdout, strings.Join(traffic.Names(), "\n"))
		return nil
	}
	d, err := adaptnoc.ParseDesign(*design)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "adaptnoc-sim: pprof:", err)
			}
		}()
		fmt.Fprintf(stderr, "adaptnoc-sim: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *recordTrace != "" && *resumeFrom != "" {
		return errors.New("-record-trace needs a cycle-0 start and cannot combine with -resume")
	}
	var s *adaptnoc.Sim
	var apps []adaptnoc.AppSpec
	if *resumeFrom != "" {
		if s, err = adaptnoc.RestoreSimFromFile(*resumeFrom); err != nil {
			return err
		}
		apps = s.Cfg.Apps // the checkpoint's own workload
		fmt.Fprintf(stderr, "adaptnoc-sim: resumed %s (%s) at cycle %d\n",
			*resumeFrom, s.Cfg.Design, s.Kernel.Now())
		if *faults != "" {
			// The campaign workflow: restore one warmed checkpoint, replay
			// it under a schedule. Strike cycles are relative to the resume
			// point so one schedule works against any snapshot.
			sched, err := faultSchedule(*faults, *faultSeed, s.Cfg.Seed, s.Net.Cfg.Width, s.Net.Cfg.Height, *cycles)
			if err != nil {
				return err
			}
			now := int64(s.Kernel.Now())
			for i := range sched {
				sched[i].Cycle += now
			}
			if err := s.ApplyFaultSchedule(sched); err != nil {
				return err
			}
		}
	} else {
		w, h := *width, *height
		if w == 0 {
			w = 8
		}
		if h == 0 {
			h = 8
		}
		gridW, gridH := *width, *height
		if *replayTrace != "" {
			data, rerr := os.ReadFile(*replayTrace)
			if rerr != nil {
				return fmt.Errorf("-trace: %w", rerr)
			}
			var tw, th int
			if apps, tw, th, err = adaptnoc.TraceWorkload(data); err != nil {
				return err
			}
			// The recorded grid sizes the replay chip unless -width/-height
			// explicitly picks a (larger) one.
			if gridW == 0 {
				gridW = tw
			}
			if gridH == 0 {
				gridH = th
			}
			w, h = gridW, gridH
		} else if w != 8 || h != 8 {
			// Larger chips tile the three-app mapping per 8×8 quadrant.
			apps = adaptnoc.TiledMixed(w, h, *budget)
			apps[0].ShareMCs = *share
		} else {
			apps = adaptnoc.MixedWorkload(*gpu, *cpu1, *cpu2, *budget)
			apps[0].ShareMCs = *share
		}
		if *appsFlag != "" && *replayTrace == "" {
			if apps, err = adaptnoc.ParseAppSpecs(*appsFlag); err != nil {
				return err
			}
			for i := range apps {
				apps[i].InstrBudget = *budget
			}
		}
		cfg := adaptnoc.Config{
			Design:      d,
			Apps:        apps,
			Width:       gridW,
			Height:      gridH,
			Seed:        *seed,
			EpochCycles: *epoch,
		}
		if *faults != "" {
			if cfg.Faults, err = faultSchedule(*faults, *faultSeed, *seed, w, h, *cycles); err != nil {
				return err
			}
		}
		if d == adaptnoc.DesignAdaptNoC {
			cfg.RL.Pretrained = adaptnoc.DefaultPolicy()
		}
		if s, err = adaptnoc.NewSim(cfg); err != nil {
			return err
		}
		if *recordTrace != "" {
			if err := s.RecordTrace(); err != nil {
				return err
			}
		}
	}

	// Sharding is an execution knob: any value computes the same results,
	// so it applies equally to fresh and resumed simulations.
	s.SetShards(*shards)

	// Observability: tracers are fanned out through a Tee so -trace and
	// -hist compose; the network pays one nil check per event when both
	// are off.
	var tee obs.Tee
	var chrome *obs.ChromeTracer
	var ring *obs.RingTracer
	if *traceFile != "" {
		switch *traceFormat {
		case "chrome":
			chrome = &obs.ChromeTracer{Cap: *traceCap}
			tee = append(tee, chrome)
		case "ring":
			capacity := *traceCap
			if capacity <= 0 {
				capacity = 1 << 20
			}
			ring = obs.NewRingTracer(capacity)
			tee = append(tee, ring)
		default:
			return fmt.Errorf("unknown -traceformat %q (want chrome or ring)", *traceFormat)
		}
	}
	var metrics *obs.Metrics
	if *hist {
		metrics = obs.NewMetrics()
		tee = append(tee, metrics)
	}
	switch len(tee) {
	case 0:
	case 1:
		s.Net.SetTracer(tee[0])
	default:
		s.Net.SetTracer(tee)
	}
	if *verifyEvery > 0 {
		s.Net.SetVerifier(*verifyEvery, obs.Verify)
	}

	// A finite run (a budget, or a trace replay that ends when the
	// recorded stream drains) stops when its apps finish; -cycles scales
	// its safety cap.
	limit := adaptnoc.Cycle(*cycles)
	if s.Cfg.Finite() {
		limit *= 100
	}
	var save func() error
	if *checkpoint != "" {
		cw := &adaptnoc.ChainWriter{Path: *checkpoint}
		save = func() error { return cw.Save(s) }
	}
	finished, err := s.RunTo(context.Background(), limit, adaptnoc.Cycle(*checkpointEvery), save)
	if err != nil {
		return err
	}
	if !finished {
		return errors.New("workload did not finish; raise -cycles")
	}
	res := s.Results()
	if *jsonOut {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(blob))
	} else {
		fmt.Fprint(stdout, res)
	}

	if *traceFile != "" {
		if err := writeTrace(*traceFile, chrome, ring, stderr); err != nil {
			return err
		}
	}
	if *recordTrace != "" {
		tr, err := s.FinishTrace()
		if err != nil {
			return err
		}
		blob, err := adaptnoc.EncodeTrace(tr)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*recordTrace, blob, 0o644); err != nil {
			return err
		}
		n := 0
		for _, a := range tr.Apps {
			n += len(a.Nodes)
		}
		fmt.Fprintf(stderr, "adaptnoc-sim: recorded %d packets across %d apps to %s (%d bytes)\n",
			n, len(tr.Apps), *recordTrace, len(blob))
	}
	if metrics != nil {
		fmt.Fprintln(stdout)
		metrics.Report(stdout, int64(s.Kernel.Now()))
	}
	if *stats {
		st := s.TickStats()
		fmt.Fprintf(stdout, "\n# tick stats: %d cycles; routers ticked %d skipped %d (%.1f%% skipped); channels ticked %d skipped %d (%.1f%% skipped)\n",
			st.Cycles, st.RouterTicks, st.RouterSkips, 100*st.RouterSkipRate(),
			st.ChannelTicks, st.ChannelSkips, 100*st.ChannelSkipRate())
	}
	if *layout {
		for i := range apps {
			fmt.Fprintf(stdout, "\n# app %d (%s), final topology %v\n%s",
				i, apps[i].Profile, s.Topology(i), s.Layout(i))
		}
	}
	if *epochTrace && s.Ctl != nil {
		for i, b := range s.Ctl.Bindings() {
			fmt.Fprintf(stdout, "\n# epoch trace, app %d (%s)\n", i, apps[i].Profile)
			for _, rec := range b.Trace {
				fmt.Fprintf(stdout, "ep%-3d kind=%-5v chose=%-5v net=%6.1f queue=%7.1f power=%5.0fmW reward=%6.2f\n",
					rec.Epoch, rec.Kind, rec.Chosen, rec.AvgNetLat, rec.AvgQueueLat, rec.PowerMW, rec.Reward)
			}
		}
	}
	return nil
}

func writeTrace(path string, chrome *obs.ChromeTracer, ring *obs.RingTracer, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case chrome != nil:
		if _, err := chrome.WriteTo(f); err != nil {
			return err
		}
		if chrome.Dropped > 0 {
			fmt.Fprintf(stderr, "adaptnoc-sim: trace cap reached, dropped %d events (raise -tracecap)\n", chrome.Dropped)
		}
	case ring != nil:
		if _, err := ring.WriteTo(f); err != nil {
			return err
		}
		if ring.Total() > uint64(len(ring.Records())) {
			fmt.Fprintf(stderr, "adaptnoc-sim: ring kept newest %d of %d events\n", len(ring.Records()), ring.Total())
		}
	}
	return f.Sync()
}
