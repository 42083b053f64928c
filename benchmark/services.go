package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptnoc"
	"adaptnoc/internal/exp"
	"adaptnoc/internal/fleet"
	"adaptnoc/internal/runner"
	"adaptnoc/internal/serve"
)

// The service workloads: in-process servers on loopback, closed-loop
// clients, nothing but HTTP between them.

// node is one serve daemon behind a loopback listener.
type node struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startNode(workers int) (*node, error) {
	n := &node{srv: serve.New(serve.Options{Workers: workers, JitterSeed: 1})}
	n.ts = httptest.NewServer(n.srv.Handler())
	return n, awaitHealthy(n.ts.URL)
}

func (n *node) stop() {
	n.ts.Close()
	n.srv.Shutdown(context.Background())
}

// awaitHealthy returns once GET /healthz answers 200; set-up ends there.
func awaitHealthy(url string) error {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/healthz: %s", url, resp.Status)
	}
	return nil
}

// client is one closed-loop caller with its own connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{http: &http.Client{Transport: &http.Transport{}}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and whole body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches path into v, expecting 200.
func (c *client) getJSON(path string, v any) error {
	status, data, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, status, data)
	}
	return json.Unmarshal(data, v)
}

// scrape reads one un-labelled series from a Prometheus text exposition.
func (c *client) scrape(series string) (float64, error) {
	status, data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %d %v", status, err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindSubmatch(data)
	if m == nil {
		return 0, fmt.Errorf("/metrics has no series %s", series)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

const coldCycles = 20000

// coldBody is the i-th distinct cold request: the mixed baseline under its
// own seed, small enough that the wrapper around the simulation shows.
func coldBody(seed uint64, i int) []byte {
	body, err := json.Marshal(serve.Request{
		Config: mixedConfig(adaptnoc.DesignBaseline, seed*1000003+uint64(i)),
		Cycles: coldCycles,
	})
	if err != nil {
		panic(err) // a Config built here always marshals
	}
	return body
}

// serveSamples is what one client saw, in the order it sent.
type serveSamples struct {
	cold     []time.Duration
	cached   []time.Duration
	rejected int
}

// serveClient runs rounds of one cold request followed by cachedPerRound
// re-submissions of requests this client has already completed. A cold
// request lasts from the POST until its results are in hand: the SSE
// stream ends when the job does, then one GET fetches the document.
func (r *run) serveClient(c *client, out *serveSamples, first, rounds, cachedPerRound int) {
	type done struct{ body, results []byte }
	var mine []done
	for round := 0; round < rounds; round++ {
		body := coldBody(r.seed, first+round)
		start := time.Now()
		status, data, err := c.do(http.MethodPost, "/v1/sims", body)
		var info serve.JobInfo
		if err == nil && status == http.StatusAccepted {
			err = json.Unmarshal(data, &info)
		}
		if err == nil && status == http.StatusAccepted {
			_, _, err = c.do(http.MethodGet, "/v1/jobs/"+info.ID+"/events", nil)
		}
		if err == nil && status == http.StatusAccepted {
			err = c.getJSON("/v1/jobs/"+info.ID, &info)
		}
		took := time.Since(start)
		out.cold = append(out.cold, took)
		if status == http.StatusTooManyRequests {
			out.rejected++
		}
		ok := err == nil && status == http.StatusAccepted && info.State == serve.StateDone && info.Cache == "miss"
		r.check(ok, "cold request %d: status %d state %q cache %q: %v", first+round, status, info.State, info.Cache, err)
		if !ok {
			continue
		}
		res, err := adaptnoc.ParseResults(info.Results)
		r.check(err == nil && res.Cycles == coldCycles, "cold request %d simulated %d cycles, want %d: %v", first+round, res.Cycles, coldCycles, err)
		mine = append(mine, done{body, info.Results})

		for k := 0; k < cachedPerRound; k++ {
			want := mine[k%len(mine)]
			start := time.Now()
			status, data, err := c.do(http.MethodPost, "/v1/sims", want.body)
			took := time.Since(start)
			out.cached = append(out.cached, took)
			var hit serve.JobInfo
			if err == nil {
				err = json.Unmarshal(data, &hit)
			}
			r.check(err == nil && status == http.StatusOK && hit.Cache == "hit" && bytes.Equal(hit.Results, want.results),
				"cached re-submission: status %d cache %q, results identical=%v: %v", status, hit.Cache, bytes.Equal(hit.Results, want.results), err)
		}
	}
}

func runServeMix(r *run) {
	const cachedPerRound = 50
	if r.traced {
		r.traceServe(cachedPerRound)
		return
	}
	// Eight cold requests per requested second over all passes, shared
	// among the clients. Every pass sends the same requests to a fresh
	// server, so request i of client c is the same work in each.
	rounds := max(1, int(math.Round(8*r.seconds/passes/float64(r.procs))))
	cold := make([][][]time.Duration, r.procs)   // [client][pass][request]
	cached := make([][][]time.Duration, r.procs) // likewise
	var allocs uint64
	var n *node
	for p := 0; p < passes; p++ {
		if n != nil {
			n.stop()
		}
		var ok bool
		if n, ok = sampleSetup(r, 40, func() (*node, error) { return startNode(r.procs) }, (*node).stop); !ok {
			return
		}
		outs := make([]serveSamples, r.procs)
		var wg sync.WaitGroup
		before := mallocs()
		for c := range outs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := newClient(n.ts.URL)
				defer cl.close()
				r.serveClient(cl, &outs[c], c*rounds, rounds, cachedPerRound)
			}(c)
		}
		wg.Wait()
		allocs += mallocs() - before
		for c, out := range outs {
			r.check(out.rejected == 0, "%d submissions were refused with 429", out.rejected)
			if len(out.cold) != rounds || len(out.cached) != rounds*cachedPerRound {
				n.stop()
				return // a request failed and was counted; the passes no longer line up
			}
			cold[c], cached[c] = append(cold[c], out.cold), append(cached[c], out.cached)
		}
	}
	defer n.stop()
	// A pass lasts as long as its slowest client, and a client as long as
	// its requests one after the other.
	var coldOps, cachedOps []time.Duration
	var wall time.Duration
	for c := range cold {
		coldC, cachedC := fastestAcross(cold[c]), fastestAcross(cached[c])
		wall = max(wall, sum(coldC)+sum(cachedC))
		coldOps, cachedOps = append(coldOps, coldC...), append(cachedOps, cachedC...)
	}
	cycles := adaptnoc.Cycle(len(coldOps)) * coldCycles
	r.reportEndToEnd(cycles, wall, cachedOps, allocs/passes, n)
	// The mix has two modes; its tail is the slow one's median, not a
	// percentile that would fall between them.
	r.set("op_ms_tail", median(millis(coldOps)))
	r.ops(len(coldOps))
	r.info("cold_requests", len(coldOps))
	r.info("cached_requests", len(cachedOps))
}

// traceServe is the serve workload seen from one client, so that nothing
// else runs beside a cold request and its latency minus the same
// simulation called directly is the wrapper's cost.
func (r *run) traceServe(cachedPerRound int) {
	n, err := startNode(r.procs)
	if !r.must(err, "starting serve") {
		return
	}
	defer n.stop()
	cl := newClient(n.ts.URL)
	defer cl.close()

	r.set("serve.healthz_roundtrip_us", us(perCall(func() { _, _, err = cl.do(http.MethodGet, "/healthz", nil) })))
	r.must(err, "GET /healthz")

	rounds := max(2, int(math.Round(r.seconds)))
	var out serveSamples
	endMix := r.phase("serve.client_mix")
	r.serveClient(cl, &out, 0, rounds, cachedPerRound)
	endMix()
	r.ops(len(out.cold) + len(out.cached))

	// The same requests, called directly: parse, build, run, marshal.
	endDirect := r.phase("serve.direct_runs")
	var direct []float64
	for i := 0; i < rounds; i++ {
		body := coldBody(r.seed, i)
		start := time.Now()
		req, err := serve.ParseRequest(body)
		if !r.must(err, "ParseRequest") {
			return
		}
		s, err := adaptnoc.NewSim(req.Config)
		if !r.must(err, "NewSim") {
			return
		}
		s.Run(req.Cycles)
		_, err = json.Marshal(s.Results())
		direct = append(direct, ms(time.Since(start)))
		r.must(err, "marshalling Results")
	}
	endDirect()

	cold, cached := sorted(millis(out.cold)), sorted(millis(out.cached))
	r.set("serve.direct_run_ms", median(direct))
	r.set("serve.cold_req_ms_p50", quantile(cold, 0.5))
	r.set("serve.cold_overhead_ms", quantile(cold, 0.5)-median(direct))
	r.set("serve.cached_req_us_p50", 1000*quantile(cached, 0.5))
	r.set("serve.cached_req_us_p95", 1000*quantile(cached, 0.95))
	r.set("serve.rejected_429", float64(out.rejected))
	hits, err1 := cl.scrape("adaptnoc_serve_cache_hits_total")
	misses, err2 := cl.scrape("adaptnoc_serve_cache_misses_total")
	if r.must(err1, "scraping cache hits") && r.must(err2, "scraping cache misses") {
		r.set("serve.cache_hit_ratio", hits/(hits+misses))
	}

	// The layers under the wrapper, on the first cold request's simulation.
	cfg := mixedConfig(adaptnoc.DesignBaseline, r.seed*1000003)
	r.traceDirect(cfg, coldCycles)
}

// traceDirect probes the simulation a service workload wraps: the given
// configuration, warmed, over a window of the given length.
func (r *run) traceDirect(cfg adaptnoc.Config, cycles adaptnoc.Cycle) {
	const warm, slice = 5000, 2500
	blob, _, ok := r.warmState(cfg, warm, 0)
	if !ok {
		return
	}
	r.traceSim(blob, cycles/slice*slice, slice)
	r.rigs(blob, cfg)
}

// cluster is a fleet coordinator over one single-worker serve node per
// core, all in this process.
type cluster struct {
	nodes []*node
	coord *fleet.Coordinator
	ts    *httptest.Server
}

func startCluster(procs int) (*cluster, error) {
	c := &cluster{}
	// Poll well below an item's run time: at the default 250 ms the wait
	// for the next poll, not the control plane's work, would be most of an
	// item's overhead and all of its noise.
	c.coord = fleet.New(fleet.Options{Parallelism: procs, Poll: 20 * time.Millisecond, JitterSeed: 1})
	c.ts = httptest.NewServer(c.coord.Handler())
	for i := 0; i < procs; i++ {
		n, err := startNode(1)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.coord.AddWorker(n.ts.URL)
	}
	return c, awaitHealthy(c.ts.URL)
}

func (c *cluster) stop() {
	c.ts.Close()
	c.coord.Close()
	for _, n := range c.nodes {
		n.stop()
	}
}

// simulatedCycles sums Results.Cycles over every job the cluster's nodes
// ran — the simulated work the fleet actually did, duplicates included.
func (c *cluster) simulatedCycles() (cycles adaptnoc.Cycle, jobs int, err error) {
	for _, n := range c.nodes {
		cl := newClient(n.ts.URL)
		defer cl.close()
		var list []serve.JobInfo
		if err := cl.getJSON("/v1/jobs", &list); err != nil {
			return 0, 0, err
		}
		for _, j := range list {
			var info serve.JobInfo
			if err := cl.getJSON("/v1/jobs/"+j.ID, &info); err != nil {
				return 0, 0, err
			}
			if info.State != serve.StateDone || info.Cache != "miss" {
				continue
			}
			res, err := adaptnoc.ParseResults(info.Results)
			if err != nil {
				return 0, 0, err
			}
			cycles += res.Cycles
			jobs++
		}
	}
	return cycles, jobs, nil
}

// suiteRun is one suite as its submitter saw it.
type suiteRun struct {
	wall   time.Duration
	items  map[string]time.Duration // item-start to item-done, by work item key
	output []byte
}

// submitSuite posts the manifest and follows the suite's event stream to
// its end, timing every work item between its two events; the clock stops
// when the rendered output is in hand.
func submitSuite(base string, m fleet.Manifest) (*suiteRun, error) {
	cl := newClient(base)
	defer cl.close()
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	status, data, err := cl.do(http.MethodPost, "/v1/suites", body)
	if err != nil || status != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/suites: %d %s %v", status, data, err)
	}
	var info fleet.SuiteInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, err
	}
	resp, err := cl.http.Get(base + "/v1/suites/" + info.ID + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	run := &suiteRun{items: map[string]time.Duration{}}
	started := map[string]time.Time{}
	// The stream is "event: <name>" then "data: <json>" per frame and ends
	// with the suite.
	lines, name := bufio.NewScanner(resp.Body), ""
	for lines.Scan() {
		if v, ok := strings.CutPrefix(lines.Text(), "event: "); ok {
			name = v
			continue
		}
		payload, ok := strings.CutPrefix(lines.Text(), "data: ")
		if !ok || name != "item" {
			continue
		}
		var ev fleet.SuiteEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return nil, err
		}
		switch ev.Phase {
		case "item-start":
			started[ev.Key] = time.Now()
		case "item-done":
			run.items[ev.Key] = time.Since(started[ev.Key])
		case "item-failed":
			return nil, fmt.Errorf("item %s failed: %s", ev.Key, ev.Error)
		}
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	status, run.output, err = cl.do(http.MethodGet, "/v1/suites/"+info.ID+"/output", nil)
	run.wall = time.Since(start)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET suite output: %d %s %v", status, run.output, err)
	}
	return run, nil
}

// localSuite runs the manifest the way adaptnoc-experiments does and
// renders it the way the coordinator does: the reference bytes.
func localSuite(m fleet.Manifest, parallelism int) ([]byte, time.Duration, error) {
	o := m.Options()
	o.Parallelism = parallelism
	start := time.Now()
	tables, err := exp.RunSuite(o, m.Params())
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	for _, t := range tables {
		t.Print(&buf)
	}
	return buf.Bytes(), time.Since(start), nil
}

func runFleetSuite(r *run) {
	// A suite is a fixed ~5 s of simulation whatever time is requested.
	m := fleet.Manifest{Figs: []string{"7", "10", "11"}, Quick: true, Seed: 1 + r.seed*1000003}
	// Starting a cluster takes under a millisecond and varies with the
	// host's mood, so it is sampled in four bursts spread over the run.
	sampleClusters := func() (*cluster, bool) {
		return sampleSetup(r, 40, func() (*cluster, error) { return startCluster(r.procs) }, (*cluster).stop)
	}
	if !r.traced {
		c, ok := sampleClusters()
		if !ok {
			return
		}
		c.stop()
	}
	endLocal := r.phase("exp.local_suite")
	ref, local, err := localSuite(m, r.procs)
	endLocal()
	if !r.must(err, "local exp.RunSuite") {
		return
	}

	// An untraced run submits the suite twice, to a fresh cluster each
	// time, and keeps the faster reading of the suite and of every item.
	fleetPasses := 2
	if r.traced {
		fleetPasses = 1
	}
	endFleet := r.phase("fleet.suites")
	var c *cluster
	var wall time.Duration
	var allocs uint64
	byKey := map[string]time.Duration{}
	for p := 0; p < fleetPasses; p++ {
		if c != nil {
			c.stop()
		}
		var ok bool
		if c, ok = sampleClusters(); !ok {
			return
		}
		before := mallocs()
		run, err := submitSuite(c.ts.URL, m)
		allocs += mallocs() - before
		if !r.must(err, "fleet suite") {
			c.stop()
			return
		}
		r.check(bytes.Equal(run.output, ref), "fleet output (%d bytes) differs from the local suite's (%d bytes)", len(run.output), len(ref))
		if p == 0 || run.wall < wall {
			wall = run.wall
		}
		for key, took := range run.items {
			if best, seen := byKey[key]; !seen || took < best {
				byKey[key] = took
			}
		}
	}
	defer c.stop()
	endFleet()
	var items []time.Duration
	for _, took := range byKey {
		items = append(items, took)
	}
	cycles, jobs, err := c.simulatedCycles()
	if !r.must(err, "reading the workers' jobs") {
		return
	}
	r.check(jobs >= len(items), "workers ran %d jobs for %d work items", jobs, len(items))

	if !r.traced {
		if extra, ok := sampleClusters(); ok {
			extra.stop()
		}
		// Work items differ too much in length for a percentile over 26 of
		// them to be steady; the operation here is the suite.
		r.reportEndToEnd(cycles, wall, []time.Duration{wall}, allocs/uint64(fleetPasses), c)
		r.ops(len(items))
		r.info("item_ms_p50", median(millis(items)))
		r.info("suite_s", wall.Seconds())
		r.info("suite_local_s", local.Seconds())
		r.info("items", len(items))
		return
	}
	r.ops(len(items))
	r.set("exp.suite_local_s", local.Seconds())
	r.set("fleet.suite_s", wall.Seconds())
	r.set("fleet.items", float64(len(items)))
	r.set("fleet.overhead_ms_per_item", ms(wall-local)/float64(len(items)))
	cl := newClient(c.ts.URL)
	defer cl.close()
	retries, err1 := cl.scrape("adaptnoc_fleet_retries_total")
	shadows, err2 := cl.scrape("adaptnoc_fleet_delta_shadows_total")
	if r.must(err1, "scraping fleet retries") && r.must(err2, "scraping fleet delta shadows") {
		r.set("fleet.retries", retries)
		r.set("fleet.delta_shadows", shadows)
	}

	// runner: eight independent simulations, serially and fanned out. One
	// core has nothing to fan out to; the metric then stays at its 0.
	if r.procs > 1 {
		fanout := func(parallelism int) time.Duration {
			start := time.Now()
			_, err := runner.Map(context.Background(), parallelism, runner.Seeds(r.seed, 8),
				func(ctx context.Context, seed uint64) (struct{}, error) {
					s, err := adaptnoc.NewSim(mixedConfig(adaptnoc.DesignBaseline, seed))
					if err != nil {
						return struct{}{}, err
					}
					return struct{}{}, s.RunContext(ctx, coldCycles/4)
				})
			r.must(err, "runner.Map")
			return time.Since(start)
		}
		endFanout := r.phase("runner.fanout")
		serial := fanout(1)
		r.set("runner.fanout_speedup", float64(serial)/float64(fanout(r.procs)))
		endFanout()
	}

	// The layers under the fleet, on the suite's first simulation shape.
	r.traceDirect(mixedConfig(adaptnoc.DesignBaseline, m.Seed), exp.QuickOptions().Cycles/2)
}
