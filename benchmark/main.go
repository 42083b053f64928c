// Command benchmark is the repository's performance ledger: eight named
// workloads drive the simulator and its service layers from one process,
// end-to-end metrics are measured with tracing off, and a separate traced
// run attributes host time to each layer from outside, through public
// entry points only. See README.md for the catalogue and BENCHMARK.json
// (this program's -manifest output) for the contract the driver checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The first four fields are the line
// the driver reads; the rest is the ledger's own record.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	WallS    float64        `json:"wall_s"`
	Info     map[string]any `json:"info"`
}

// run is the context a workload measures in.
type run struct {
	seed    uint64
	seconds float64
	traced  bool
	procs   int
	res     *result
	spans   *spanLog // nil unless traced
	root    int      // the run's root span
	tmp     string   // scratch directory, removed after the run

	setups      []float64 // set-up times in seconds; their median is setup_s
	setupPrimed bool      // the first build has been made (and not measured)

	mu sync.Mutex // guards res.Attempted/Failed: serve clients check concurrently
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
}

// ops counts n operations attempted without failure.
func (r *run) ops(n int) {
	r.mu.Lock()
	r.res.Attempted += int64(n)
	r.mu.Unlock()
}

// check counts one correctness check as an attempted operation and, when
// it does not hold, as a failed one.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.logf("FAILED: "+format, args...)
	}
}

// must turns an error of the system under test into a failed operation
// and reports whether the caller can go on.
func (r *run) must(err error, what string) bool {
	r.check(err == nil, "%s: %v", what, err)
	return err == nil
}

func (r *run) set(name string, v float64) {
	def := lookupMetric(name)
	if def == nil {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	r.res.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
}

func (r *run) info(key string, v any) { r.res.Info[key] = v }

// owedMetrics is the list a run of the given mode must report, whole.
func owedMetrics(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func lookupMetric(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// execute runs one workload once and closes its books: every metric the
// mode owes must be present and finite, and any failed operation makes
// the run incorrect.
func execute(w *workloadDef, seed uint64, seconds float64, traced bool, spans *spanLog) *result {
	res := &result{
		Metrics:  map[string]metricValue{},
		Workload: w.Name, Seed: seed, Seconds: seconds,
		Info: map[string]any{},
	}
	owed := owedMetrics(traced)
	if traced {
		res.Trace = 1
		// A layer the workload never enters spends no time and counts
		// nothing; the workload overwrites what it does measure.
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	tmp, err := os.MkdirTemp("", "adaptnoc-bench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	r := &run{seed: seed, seconds: seconds, traced: traced, procs: runtime.GOMAXPROCS(0), res: res, tmp: tmp}
	if traced {
		r.spans = spans
		r.root = spans.begin(w.Name, -1, w.Name)
	}
	// Workloads share this process when several are selected; hand back
	// what the previous one left so that each starts from a small heap.
	debug.FreeOSMemory()
	start := time.Now()
	w.run(r)
	res.WallS = time.Since(start).Seconds()
	r.spans.end(r.root)
	if !traced && len(r.setups) > 0 {
		r.set("setup_s", median(r.setups))
		r.info("setup_samples", len(r.setups))
	}

	for _, d := range owed {
		v, ok := res.Metrics[d.Name]
		r.check(ok && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0), "metric %s missing or not finite", d.Name)
	}
	for name := range res.Metrics {
		found := false
		for _, d := range owed {
			found = found || d.Name == name
		}
		r.check(found, "metric %s is not owed by this mode", name)
	}
	res.Correct = res.Failed == 0
	return res
}

// environment records where the numbers were taken.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

type ledger struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func currentEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadStart: loadAverage(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// loadAverage is the host's 1-minute load, or -1 where /proc has none.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var load float64
	if _, err := fmt.Sscan(string(data), &load); err != nil {
		return -1
	}
	return load
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all eight)")
		seed      = flag.Uint64("seed", 2021, "the only input that shapes the load")
		seconds   = flag.Float64("seconds", runSeconds, "how long each timed section should last on the reference host; scales every cycle and request count")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and the direct-call rigs and reports the per-layer metrics; 0 reports the end-to-end metrics")
		repeat    = flag.Int("repeat", 1, "run the selection this many times")
		jsonOut   = flag.String("json", "", "write the ledger (environment + every run) to this file")
		traceFile = flag.String("tracefile", "", "write the traced runs' spans to this file")
		compare   = flag.Bool("compare", false, "compare two ledger files given as arguments against the bounds; exit 1 on a regression")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	if *printMan {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(benchmarkManifest()); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two ledger files"))
		}
		os.Exit(compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *repeat < 1 || flag.NArg() != 0 {
		fatal(fmt.Errorf("usage: -trace is 0 or 1, -seconds > 0, -repeat >= 1, no positional arguments"))
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadDef{*w}
	}

	// Load is sized to the host from one process: at most four cores, so
	// that numbers from differently sized machines stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	led := ledger{Env: currentEnvironment()}
	fmt.Fprintf(os.Stderr, "env: commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d load1=%.2f\n",
		led.Env.Commit, led.Env.GoVersion, led.Env.CPU, led.Env.NumCPU, led.Env.GOMAXPROCS, led.Env.LoadStart)
	spans := newSpanLog()
	failed := false
	for i := 0; i < *repeat; i++ {
		for w := range selected {
			fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g trace=%d\n", selected[w].Name, *seed, *seconds, *trace)
			res := execute(&selected[w], *seed, *seconds, *trace == 1, spans)
			printResult(res)
			led.Runs = append(led.Runs, res)
			failed = failed || !res.Correct
		}
	}
	led.Env.LoadEnd = loadAverage()
	if *jsonOut != "" {
		writeJSONFile(*jsonOut, led)
	}
	if *traceFile != "" {
		writeJSONFile(*traceFile, spans.spans)
	}
	if failed {
		os.Exit(1)
	}
}

func writeJSONFile(path string, v any) {
	blob, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

// printResult writes the table a person reads to stderr and the line the
// driver reads — exactly correct, attempted, failed and metrics — to
// stdout.
func printResult(res *result) {
	for _, d := range owedMetrics(res.Trace == 1) {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
		}
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %-6s (%s is better)%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better, bound)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d fail_ratio=%g wall=%.1fs\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.WallS)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}
