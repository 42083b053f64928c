package fleet

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptnoc"
	"adaptnoc/internal/httpkit"
	"adaptnoc/internal/runner"
	"adaptnoc/internal/serve"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// Options configure a Coordinator. The zero value is usable.
type Options struct {
	// Lease is the lease interval dispatched jobs carry; the coordinator
	// renews it every poll, so a dead coordinator (or partitioned worker)
	// frees the job within one interval (default 15s).
	Lease time.Duration
	// Poll is the job-polling and lease-renewal period (default 250ms).
	Poll time.Duration
	// StealAfter is how long a dispatched job may run before the
	// coordinator duplicates it onto an idle worker, first finisher wins
	// (default 1m; negative disables stealing).
	StealAfter time.Duration
	// MaxAttempts bounds dispatch attempts per work item before the item
	// fails permanently (default 8).
	MaxAttempts int
	// Parallelism bounds how many evaluations a suite issues at once — it
	// is handed to exp.Options.Parallelism and also caps local fallback
	// runs (<= 0 selects one per CPU).
	Parallelism int
	// HeartbeatTTL is how long a worker stays schedulable after its last
	// proof of life — heartbeat, probe, or successful RPC (default 15s).
	HeartbeatTTL time.Duration
	// JitterSeed seeds the requeue-backoff jitter (0 seeds from the clock).
	JitterSeed uint64
	// Logf, when set, receives scheduling decisions (dispatch, requeue,
	// steal, handoff) for the operator's log.
	Logf func(format string, args ...any)
}

// Coordinator schedules experiment suites across a fleet of adaptnoc-serve
// workers. Create with New, mount Handler on an http.Server, and call
// Close to stop background loops and cancel in-flight suites.
type Coordinator struct {
	opts   Options
	mux    *http.ServeMux
	jitter backoffJitter

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	items      map[string]*item
	workers    map[string]*worker
	suites     map[string]*suiteRecord
	suiteOrder []string
	nextWorker int64
	nextSuite  int64

	localSem chan struct{} // bounds no-worker fallback evaluations

	dispatches   atomic.Int64
	requeues     atomic.Int64
	steals       atomic.Int64
	localRuns    atomic.Int64
	handoffs     atomic.Int64
	deltaShadows atomic.Int64
	suitesTotal  atomic.Int64

	histMu  sync.Mutex
	latency *sim.Histogram // item wall time (first dispatch to done), ms
}

// itemLatencyBucketMS is the item-latency histogram shape: 60 × 2 s
// buckets (2 min span) plus overflow — items are whole simulations, an
// order of magnitude above single serve jobs.
const (
	itemLatencyBucketMS = 2000
	itemLatencyBuckets  = 60
)

// New builds a Coordinator and starts its health prober.
func New(o Options) *Coordinator {
	if o.Lease <= 0 {
		o.Lease = 15 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	if o.StealAfter == 0 {
		o.StealAfter = time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 15 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:     o,
		jitter:   backoffJitter{httpkit.NewJitter(o.JitterSeed)},
		ctx:      ctx,
		cancel:   cancel,
		items:    make(map[string]*item),
		workers:  make(map[string]*worker),
		suites:   make(map[string]*suiteRecord),
		localSem: make(chan struct{}, runner.Parallelism(o.Parallelism)),
		latency:  sim.NewHistogram(itemLatencyBucketMS, itemLatencyBuckets),
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("POST /v1/workers", c.handleRegister)
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	c.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("DELETE /v1/workers/{id}", c.handleUnregister)
	c.mux.HandleFunc("POST /v1/suites", c.handleCreateSuite)
	c.mux.HandleFunc("GET /v1/suites", c.handleSuites)
	c.mux.HandleFunc("GET /v1/suites/{id}", c.handleSuite)
	c.mux.HandleFunc("GET /v1/suites/{id}/output", c.handleSuiteOutput)
	c.mux.HandleFunc("GET /v1/suites/{id}/events", c.handleSuiteEvents)
	c.wg.Add(1)
	go c.prober()
	return c
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the coordinator: background loops exit and every in-flight
// suite's evaluations are canceled.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// short abbreviates a content key for logs and errors.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// sleepCtx waits d or until ctx ends, reporting whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// --- scheduling core ---

// ensureItem returns the work item for a key, creating it on first sight.
// Items are shared across suites: two suites needing the same evaluation
// wait on one item, and a completed item answers later suites instantly.
func (c *Coordinator) ensureItem(key string, req serve.Request) *item {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.items[key]; ok {
		return it
	}
	it := newItem(key, req)
	c.items[key] = it
	return it
}

// requestTo is the canonical serve request that runs cfg to limit: the
// window of a window config, the completion cap of a finite one.
func requestTo(cfg adaptnoc.Config, limit adaptnoc.Cycle) serve.Request {
	if cfg.Finite() {
		return serve.Request{Config: cfg, MaxCycles: limit}.Canonical()
	}
	return serve.Request{Config: cfg, Cycles: limit}.Canonical()
}

// evalItem drives the item for key to a terminal state and decodes its
// result. The first caller claims the item's driver token and runs the
// reconcile loop; concurrent callers for the same key block on the item,
// and take the token over if the driver's context ends first.
func (c *Coordinator) evalItem(ctx context.Context, key string, req serve.Request) (adaptnoc.Results, error) {
	it := c.ensureItem(key, req)
	for {
		state, result, errMsg := it.outcome()
		switch state {
		case ItemDone:
			var res adaptnoc.Results
			if err := json.Unmarshal(result, &res); err != nil {
				return adaptnoc.Results{}, fmt.Errorf("fleet: decoding results of %s: %w", short(key), err)
			}
			return res, nil
		case ItemFailed:
			return adaptnoc.Results{}, fmt.Errorf("fleet: %s: %s", short(key), errMsg)
		}
		if err := ctx.Err(); err != nil {
			return adaptnoc.Results{}, err
		}
		if it.tryDrive() {
			c.drive(ctx, it)
			it.releaseDrive()
			continue
		}
		// Another caller is driving; wait for the terminal state, with a
		// periodic recheck in case the driver released without finishing.
		select {
		case <-it.done:
		case <-ctx.Done():
			return adaptnoc.Results{}, ctx.Err()
		case <-time.After(c.opts.Poll):
		}
	}
}

// drive is the per-item reconcile loop: dispatch to the least-loaded
// healthy worker, requeue with jittered exponential backoff on loss, fall
// back to local evaluation when no workers are registered, give up after
// MaxAttempts.
func (c *Coordinator) drive(ctx context.Context, it *item) {
	for attempt := 1; ; attempt++ {
		if state, _, _ := it.outcome(); state.Terminal() {
			return
		}
		if ctx.Err() != nil {
			return
		}
		wk := c.pickWorker("", false)
		if wk == nil {
			c.runLocal(ctx, it)
			return
		}
		switch c.attempt(ctx, it, wk, true) {
		case oDone, oCanceled:
			return
		case oRequeue:
			it.setPending()
			c.requeues.Add(1)
			if attempt >= c.opts.MaxAttempts {
				c.failItem(it, fmt.Sprintf("gave up after %d dispatch attempts", attempt))
				return
			}
			wait := c.jitter.backoff(attempt)
			c.logf("fleet: requeueing %s (attempt %d, backoff %s)", short(it.key), attempt, wait)
			if !sleepCtx(ctx, wait) {
				return
			}
		}
	}
}

// shadowCheckpoint refreshes the item's handoff copy of a running job's
// state. When the item already holds a hash-named copy, the fetch names it
// with ?base= and usually receives just the delta frames extending it —
// kilobytes instead of a full blob — which it applies locally; any gap
// (the worker rebased past our copy, a parse or apply failure) degrades to
// one full re-fetch. Best-effort throughout: shadowing is an optimization
// over re-running from cycle zero, never a correctness requirement.
func (c *Coordinator) shadowCheckpoint(it *item, wk *worker, jobID string) {
	local, _, haveHash := it.checkpointState()
	baseHex := ""
	if local != nil && haveHash != "" {
		baseHex = haveHash
	}
	blob, cycle, format, tip, err := wk.getCheckpoint(jobID, baseHex)
	if err != nil {
		return
	}
	if format == "delta-chain" {
		frames, perr := snap.ParseFrameLog(blob)
		if perr == nil {
			if applied, aerr := snap.ApplyChain(local, frames...); aerr == nil {
				it.setCheckpoint(applied, cycle, tip)
				c.deltaShadows.Add(1)
				return
			}
		}
		if blob, cycle, _, tip, err = wk.getCheckpoint(jobID, ""); err != nil {
			return
		}
	}
	it.setCheckpoint(blob, cycle, tip)
}

// outcome classifies one dispatch attempt.
type outcome int

const (
	oDone     outcome = iota // the item reached a terminal state
	oRequeue                 // attempt lost: worker unreachable, backpressured, or lease lapsed
	oCanceled                // the driver's context ended
)

// attempt runs one dispatch against one worker: ship the freshest shadowed
// checkpoint ahead of the job, submit lease-scoped with ?resume=1, then
// poll — renewing the lease, shadowing checkpoints for handoff, and
// optionally stealing onto an idle worker when the run outlives
// StealAfter.
func (c *Coordinator) attempt(ctx context.Context, it *item, wk *worker, stealAllowed bool) outcome {
	if blob, cycle := it.checkpointData(); blob != nil {
		if err := wk.putCheckpoint(it.key, blob); err == nil {
			c.handoffs.Add(1)
			c.logf("fleet: handed %s to %s at cycle %d", short(it.key), wk.id, cycle)
		}
	}
	info, wait, err := wk.submit(it.req, c.opts.Lease, true)
	if err != nil {
		c.logf("fleet: %s: submit %s: %v", wk.id, short(it.key), err)
		wk.markDead()
		return oRequeue
	}
	if wait > 0 {
		// Backpressure: honor the worker's jittered Retry-After, then let
		// the drive loop reschedule (possibly elsewhere).
		if !sleepCtx(ctx, wait) {
			return oCanceled
		}
		return oRequeue
	}
	c.dispatches.Add(1)
	it.setLeased(wk.id)
	wk.inflight.Add(1)
	defer wk.inflight.Add(-1)
	if info.State.Terminal() {
		return c.settle(it, info) // cache hit: born done
	}

	start := time.Now()
	stole := false
	errs := 0
	tick := time.NewTicker(c.opts.Poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			wk.cancelJob(info.ID)
			return oCanceled
		case <-it.done:
			// A stolen duplicate (or a concurrent suite) finished the item.
			wk.cancelJob(info.ID)
			return oDone
		case <-tick.C:
		}
		cur, err := wk.getJob(info.ID)
		if err != nil {
			if errs++; errs >= 3 {
				c.logf("fleet: %s: lost while running %s: %v", wk.id, short(it.key), err)
				wk.markDead()
				return oRequeue
			}
			continue
		}
		errs = 0
		if cur.State.Terminal() {
			return c.settle(it, cur)
		}
		wk.renewLease(info.ID)
		if _, have := it.checkpointData(); cur.CheckpointCycle > have {
			c.shadowCheckpoint(it, wk, info.ID)
		}
		if stealAllowed && !stole && c.opts.StealAfter > 0 && time.Since(start) > c.opts.StealAfter {
			if alt := c.pickWorker(wk.id, true); alt != nil {
				stole = true
				it.markStolen()
				c.steals.Add(1)
				c.logf("fleet: stealing %s from %s onto idle %s", short(it.key), wk.id, alt.id)
				c.wg.Add(1)
				go func() {
					defer c.wg.Done()
					c.attempt(ctx, it, alt, false)
				}()
			}
		}
	}
}

// settle folds a terminal JobInfo into the item. A failed job is a
// deterministic simulation error — retrying elsewhere would reproduce it,
// so the item fails permanently. A canceled job (lapsed lease, worker
// shutdown shedding load) requeues.
func (c *Coordinator) settle(it *item, info serve.JobInfo) outcome {
	switch info.State {
	case serve.StateDone:
		c.finishItem(it, info.Results)
		return oDone
	case serve.StateFailed:
		c.failItem(it, info.Error)
		return oDone
	default:
		return oRequeue
	}
}

// finishItem completes the item and records its wall-clock latency, once.
func (c *Coordinator) finishItem(it *item, result []byte) {
	if !it.complete(result) {
		return
	}
	c.histMu.Lock()
	c.latency.Add(time.Since(it.started).Milliseconds())
	c.histMu.Unlock()
}

func (c *Coordinator) failItem(it *item, msg string) {
	if it.fail(msg) {
		c.logf("fleet: %s failed permanently: %s", short(it.key), msg)
	}
}

// runLocal evaluates the item on the coordinator itself — the no-worker
// fallback that keeps a bare coordinator useful. It honors a shadowed
// checkpoint (an item half-run on a since-dead fleet resumes locally) and
// mirrors the serve worker's execution exactly, so results are identical.
func (c *Coordinator) runLocal(ctx context.Context, it *item) {
	select {
	case c.localSem <- struct{}{}:
	case <-ctx.Done():
		return
	}
	defer func() { <-c.localSem }()
	c.localRuns.Add(1)
	it.setLeased("local")
	var simu *adaptnoc.Sim
	if blob, _ := it.checkpointData(); blob != nil {
		if restored, err := adaptnoc.RestoreSim(blob); err == nil {
			simu = restored
		}
	}
	if simu == nil {
		fresh, err := adaptnoc.NewSim(it.req.Config)
		if err != nil {
			c.failItem(it, err.Error())
			return
		}
		simu = fresh
	}
	if _, err := simu.RunTo(ctx, it.req.Limit(), 0, nil); err != nil {
		// Canceled mid-run: shadow the state so the next driver resumes
		// from here instead of cycle zero.
		if blob, cerr := simu.Checkpoint(); cerr == nil {
			hash, _ := simu.CheckpointBodyHash()
			it.setCheckpoint(blob, int64(simu.Kernel.Now()), hex.EncodeToString(hash[:]))
		}
		it.setPending()
		return
	}
	blob, err := json.Marshal(simu.Results())
	if err != nil {
		c.failItem(it, err.Error())
		return
	}
	c.finishItem(it, blob)
}

// pickWorker returns the healthy worker holding the fewest coordinator
// leases, ties broken by id. exclude skips one worker (the steal path
// never duplicates onto the original node); mustIdle restricts the choice
// to workers with no inflight leases.
func (c *Coordinator) pickWorker(exclude string, mustIdle bool) *worker {
	c.mu.Lock()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var best *worker
	var bestLoad int64
	for _, id := range ids {
		wk := c.workers[id]
		if wk.id == exclude || !wk.healthy(c.opts.HeartbeatTTL) {
			continue
		}
		load := wk.inflight.Load()
		if mustIdle && load > 0 {
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = wk, load
		}
	}
	c.mu.Unlock()
	return best
}

// prober pings every registered worker's /healthz periodically. Active
// probing keeps statically registered workers (no self-heartbeat)
// schedulable and notices abrupt deaths without waiting for a dispatch to
// fail.
func (c *Coordinator) prober() {
	defer c.wg.Done()
	interval := c.opts.HeartbeatTTL / 3
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		c.mu.Lock()
		workers := make([]*worker, 0, len(c.workers))
		for _, wk := range c.workers {
			workers = append(workers, wk)
		}
		c.mu.Unlock()
		for _, wk := range workers {
			wk.probe()
		}
	}
}

// --- worker registry handlers ---

// AddWorker registers a worker by URL, returning its info and whether the
// registration created a new entry. Re-adding a known URL refreshes its
// liveness and keeps the identity — a restarted worker picks up where its
// name left off. The -workers flag and tests call this directly; remote
// workers go through POST /v1/workers.
func (c *Coordinator) AddWorker(url string) (WorkerInfo, bool) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	c.mu.Lock()
	for _, wk := range c.workers {
		if wk.url == url {
			c.mu.Unlock()
			wk.noteAlive()
			return wk.info(c.opts.HeartbeatTTL), false
		}
	}
	c.nextWorker++
	wk := newWorker(fmt.Sprintf("w-%d", c.nextWorker), url)
	c.workers[wk.id] = wk
	c.mu.Unlock()
	c.logf("fleet: registered %s at %s", wk.id, url)
	return wk.info(c.opts.HeartbeatTTL), true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, 1<<16, "body")
	if !ok {
		return
	}
	var reg struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		httpkit.Error(w, http.StatusBadRequest, fmt.Sprintf("parsing registration: %v", err))
		return
	}
	if strings.TrimSpace(reg.URL) == "" {
		httpkit.Error(w, http.StatusBadRequest, `missing worker url (want {"url": "http://host:port"})`)
		return
	}
	info, created := c.AddWorker(reg.URL)
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	httpkit.WriteJSON(w, status, info)
}

func (c *Coordinator) lookupWorker(id string) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[id]
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	wk := c.lookupWorker(r.PathValue("id"))
	if wk == nil {
		httpkit.Error(w, http.StatusNotFound, "no such worker (re-register)")
		return
	}
	wk.noteAlive()
	httpkit.WriteJSON(w, http.StatusOK, wk.info(c.opts.HeartbeatTTL))
}

func (c *Coordinator) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	wk := c.workers[id]
	delete(c.workers, id)
	c.mu.Unlock()
	if wk == nil {
		httpkit.Error(w, http.StatusNotFound, "no such worker")
		return
	}
	wk.markDead() // in-flight attempts notice and requeue elsewhere
	c.logf("fleet: unregistered %s", id)
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"removed": id})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	infos := make([]WorkerInfo, 0, len(c.workers))
	for _, wk := range c.workers {
		infos = append(infos, wk.info(c.opts.HeartbeatTTL))
	}
	c.mu.Unlock()
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
	httpkit.WriteJSON(w, http.StatusOK, infos)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
