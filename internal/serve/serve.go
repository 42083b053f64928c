// Package serve turns the simulator into a service: an HTTP daemon that
// accepts canonical-JSON simulation configurations, runs them on a bounded
// worker pool, streams per-epoch progress, and memoizes results in a
// content-addressed cache.
//
// The design leans on two properties the rest of the repository already
// guarantees. First, simulations are deterministic — a canonical config
// names its Results uniquely, so the cache (keyed by RequestKey, a SHA-256
// of the canonical request) returns byte-identical documents instead of
// approximations. Second, jobs are independent — the worker pool reuses
// runner.One's panic-capture semantics so one poisoned config cannot take
// the daemon down.
//
// Backpressure is explicit: the job queue is a bounded channel, and a full
// queue answers 429 with Retry-After instead of buffering without bound.
// Shutdown is graceful: admission stops (healthz flips to 503), queued and
// running jobs drain, then the cache flushes.
package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptnoc"
	"adaptnoc/internal/httpkit"
	"adaptnoc/internal/runner"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// Options configure a Server. The zero value is usable.
type Options struct {
	// QueueDepth bounds the number of admitted-but-unstarted jobs
	// (default 64). A full queue rejects with 429 + Retry-After.
	QueueDepth int
	// Workers is the pool size; <= 0 selects one per CPU.
	Workers int
	// CacheBytes bounds the in-memory result cache (<= 0 selects 64 MiB).
	CacheBytes int64
	// CacheDir, when set, persists results to disk so a restarted daemon
	// keeps its cache.
	CacheDir string
	// CheckpointDir, when set, persists a checkpoint when a running job is
	// canceled, keyed like the cache by the canonical request. A later
	// POST /v1/jobs/{id}/resume continues from the checkpoint instead of
	// cycle zero; determinism makes the spliced run's results byte-identical
	// to an uninterrupted one.
	CheckpointDir string
	// CheckpointBytes bounds the CheckpointDir's total size (<= 0 selects
	// 256 MiB). Least-recently-used checkpoints are deleted once the budget
	// is exceeded; determinism makes that safe — an evicted checkpoint only
	// costs a resume its fast-forward, never its result.
	CheckpointBytes int64
	// JitterSeed seeds the Retry-After jitter on 429 responses (0 seeds
	// from the clock). Tests set it for a reproducible sequence; the values
	// themselves are uniform over 1-5 seconds either way.
	JitterSeed uint64
}

// Server is the simulation daemon. Create with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	opts  Options
	cache *Cache
	// handoff holds checkpoint blobs a coordinator ships between workers:
	// PUT /v1/checkpoints/{key} deposits the blob a dead worker left
	// behind, and the next ?resume=1 submission for the same key takes it
	// and restores instead of recomputing. Deposits are only put and taken,
	// so eviction drops the oldest. The store is a pure optimization —
	// determinism means a missing or evicted blob only costs the
	// fast-forward.
	handoff *lru
	ckpts   *ckptStore // nil without a CheckpointDir
	mux     *http.ServeMux
	jitter  *httpkit.Jitter // Retry-After spread

	// admitMu serializes admission against shutdown: queue sends happen
	// under it, so closing the queue (also under it) can never race a send.
	admitMu  sync.Mutex
	draining bool
	queue    chan *job

	jobsMu sync.Mutex
	jobs   map[string]*job

	nextID   atomic.Int64
	seq      atomic.Int64 // completion order
	inflight atomic.Int64
	started  atomic.Int64
	counts   [3]atomic.Int64 // done, failed, canceled

	histMu  sync.Mutex
	latency *sim.Histogram // job wall time, ms

	wg sync.WaitGroup
}

// latencyBucketMS is the job-latency histogram shape: 40 × 250 ms buckets
// (10 s span) plus overflow, exported in seconds on /metrics.
const (
	latencyBucketMS = 250
	latencyBuckets  = 40
)

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	opts.Workers = runner.Parallelism(opts.Workers)
	s := &Server{
		opts:    opts,
		cache:   NewCache(opts.CacheBytes, opts.CacheDir),
		handoff: newLRU(handoffBytes, nil),
		jitter:  httpkit.NewJitter(opts.JitterSeed),
		queue:   make(chan *job, opts.QueueDepth),
		jobs:    make(map[string]*job),
		latency: sim.NewHistogram(latencyBucketMS, latencyBuckets),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sims", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	s.mux.HandleFunc("POST /v1/jobs/{id}/lease", s.handleLease)
	s.mux.HandleFunc("PUT /v1/checkpoints/{key}", s.handlePutCheckpoint)
	if opts.CheckpointDir != "" {
		s.ckpts = newCkptStore(opts.CheckpointDir, opts.CheckpointBytes)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the daemon: admission stops immediately (submissions and
// health checks answer 503), workers finish every admitted job, and the
// cache flushes. If ctx expires first, running jobs are cancelled
// cooperatively and the context error is returned after they stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.admitMu.Unlock()

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return s.cache.Flush()
	case <-ctx.Done():
		s.jobsMu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.jobsMu.Unlock()
		<-drained
		if err := s.cache.Flush(); err != nil {
			return err
		}
		return ctx.Err()
	}
}

// --- workers ---

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end: state transitions, panic-safe
// execution via runner.One, latency accounting, and result caching.
func (s *Server) runJob(j *job) {
	if !j.setRunning() {
		return // canceled while queued; finish already ran
	}
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, StateCanceled, nil, "canceled before start")
		return
	}
	s.inflight.Add(1)
	s.started.Add(1)
	start := time.Now()
	result, err := runner.One(j.ctx, j, s.execute)
	s.histMu.Lock()
	s.latency.Add(time.Since(start).Milliseconds())
	s.histMu.Unlock()
	s.inflight.Add(-1)

	switch {
	case err == nil:
		s.cache.Put(j.key, result)
		s.finishJob(j, StateDone, result, "")
	case j.ctx.Err() != nil:
		s.finishJob(j, StateCanceled, nil, "canceled")
	default:
		s.finishJob(j, StateFailed, nil, err.Error())
	}
}

// finishJob assigns the completion sequence number and bumps the terminal
// counter, exactly once per job.
func (s *Server) finishJob(j *job, state State, result []byte, errMsg string) {
	if !j.finish(state, s.seq.Add(1), result, errMsg) {
		return
	}
	switch state {
	case StateDone:
		s.counts[0].Add(1)
	case StateFailed:
		s.counts[1].Add(1)
	case StateCanceled:
		s.counts[2].Add(1)
	}
}

// checkpointPath names the on-disk checkpoint for a request key, or ""
// when checkpointing is not configured.
func (s *Server) checkpointPath(key string) string {
	if s.opts.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.opts.CheckpointDir, key+".ckpt")
}

// saveCheckpoint persists the mid-run state when the run stopped because
// of cancellation (not a simulation failure). Best-effort: a write failure
// only costs the resume fast path, never the job's own state machine.
func (s *Server) saveCheckpoint(ctx context.Context, j *job, simu *adaptnoc.Sim, path string) {
	if path == "" || ctx.Err() == nil {
		return
	}
	if err := (&adaptnoc.ChainWriter{Path: path}).Save(simu); err == nil {
		s.ckpts.note(j.key)
		j.mu.Lock()
		j.checkpointed = true
		j.mu.Unlock()
	}
}

// execute runs one simulation in control-epoch slices, emitting a progress
// event after each slice. The request is canonical, so EpochCycles is
// always explicit. Resumed jobs restore the checkpoint written when their
// predecessor was canceled and run only the remaining cycles; the request
// key pins the checkpoint to the exact canonical request, so the spliced
// run is byte-identical to an uninterrupted one.
func (s *Server) execute(ctx context.Context, j *job) ([]byte, error) {
	ckpt := s.checkpointPath(j.key)
	var simu *adaptnoc.Sim
	if j.resumed {
		// Handed-off blobs (shipped from another node's snapshot via
		// PUT /v1/checkpoints/{key}) win over this node's own disk
		// checkpoint: the handoff is why the coordinator asked to resume.
		if blob, ok := s.handoff.take(j.key); ok {
			if restored, err := adaptnoc.RestoreSim(blob); err == nil {
				simu = restored
			}
		}
		if simu == nil && ckpt != "" {
			if restored, err := adaptnoc.RestoreSimFromFile(ckpt); err == nil {
				simu = restored
				s.ckpts.touch(j.key)
			}
		}
		// A missing or unreadable checkpoint falls back to a fresh run:
		// determinism makes restore an optimization, never a correctness
		// requirement.
	}
	if simu == nil {
		fresh, err := adaptnoc.NewSim(j.req.Config)
		if err != nil {
			return nil, err
		}
		simu = fresh
	}
	emit := func() error {
		ts := simu.TickStats()
		j.events.Append(Event{
			Cycle:           int64(simu.Kernel.Now()),
			RouterSkipRate:  ts.RouterSkipRate(),
			ChannelSkipRate: ts.ChannelSkipRate(),
		})
		// Lease-scoped jobs shadow their state in memory once per slice so
		// a coordinator can fetch the latest state for handoff even after
		// this process dies abruptly mid-poll (the coordinator shadows it
		// during routine job polling). The shadow is a rolling delta chain:
		// after the first full blob, a quiet slice costs a frame of dozens
		// of bytes instead of a full re-encode. Ordinary jobs skip it all.
		if j.lease > 0 {
			j.shadow(simu)
		}
		return nil
	}
	if _, err := simu.RunTo(ctx, j.req.Limit(), adaptnoc.Cycle(j.req.Config.EpochCycles), emit); err != nil {
		s.saveCheckpoint(ctx, j, simu, ckpt)
		return nil, err
	}
	blob, err := json.Marshal(simu.Results())
	if err != nil {
		return nil, fmt.Errorf("serve: marshaling results: %w", err)
	}
	if ckpt != "" {
		s.ckpts.remove(j.key) // the result is cached now; the checkpoint is spent
	}
	return blob, nil
}

// --- handlers ---

// maxRequestBytes bounds a submission body; configurations are small.
const maxRequestBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxRequestBytes, "body")
	if !ok {
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		validationError(w, err)
		return
	}
	req = req.Canonical()
	key, err := RequestKey(req)
	if err != nil {
		validationError(w, err)
		return
	}

	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	j := newJob(id, key, req)
	if lv := r.URL.Query().Get("lease"); lv != "" {
		d, err := time.ParseDuration(lv)
		if err != nil || d <= 0 {
			httpkit.Error(w, http.StatusBadRequest, fmt.Sprintf("lease %q: want a positive Go duration (e.g. 30s)", lv))
			return
		}
		j.lease = d
	}
	if r.URL.Query().Get("resume") == "1" {
		// The job restores the handed-off (or disk) checkpoint for its key
		// when one exists and runs only the remaining cycles; a fresh run
		// otherwise. Results are byte-identical either way.
		j.resumed = true
	}
	s.admit(w, j)
}

// admit runs the shared admission path for fresh submissions and resumes:
// cache hit → born done, otherwise the bounded queue with 429/503 refusals.
func (s *Server) admit(w http.ResponseWriter, j *job) {
	// Cache hit: the job is born done, no worker involved.
	if blob, ok := s.cache.Get(j.key); ok {
		j.hit = true
		j.state = StateRunning // finish() requires a non-terminal state
		s.finishJob(j, StateDone, blob, "")
		s.addJob(j)
		httpkit.WriteJSON(w, http.StatusOK, j.info())
		return
	}

	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		httpkit.Error(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case s.queue <- j:
		s.admitMu.Unlock()
	default:
		s.admitMu.Unlock()
		// Jittered Retry-After: a fixed value would synchronize every
		// backed-off client (a coordinator fleet most of all) into retry
		// storms that slam the queue in lockstep.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", 1+s.jitter.Below(5))) // uniform 1-5 s
		httpkit.Error(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	s.addJob(j)
	j.armLease()
	httpkit.WriteJSON(w, http.StatusAccepted, j.info())
}

// handleResume admits a new job for a canceled job's request. When the
// cancellation left a checkpoint behind, the new job restores it and runs
// only the remaining cycles; either way the result is byte-identical to an
// uninterrupted run and lands in the cache under the same key.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	prev := s.lookup(r.PathValue("id"))
	if prev == nil {
		httpkit.Error(w, http.StatusNotFound, "no such job")
		return
	}
	prev.mu.Lock()
	state := prev.state
	prev.mu.Unlock()
	if state != StateCanceled {
		httpkit.Error(w, http.StatusConflict, fmt.Sprintf("job is %s; only canceled jobs can be resumed", state))
		return
	}
	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	j := newJob(id, prev.key, prev.req)
	j.resumed = true
	s.admit(w, j)
}

// handleLease renews a lease-scoped job's lease by one interval. 409 when
// the job carries no lease or already ended — the client must resubmit,
// not renew.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpkit.Error(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.renewLease() {
		httpkit.Error(w, http.StatusConflict, "job has no active lease (submit with ?lease=<duration> and renew before it lapses)")
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, j.info())
}

// handleCheckpoint serves the job's latest checkpoint for handoff: the
// in-memory chain of a lease-scoped job when one exists, else the
// cancel-time disk checkpoint. A caller that already holds an earlier
// link of the chain names it with ?base=<hex body hash> and receives just
// the delta frames extending it (X-Checkpoint-Format: delta-chain, body a
// snap frame log — possibly empty when the caller is already current)
// instead of the full blob, so a polling coordinator's steady-state fetch
// is kilobytes. Every response carries the simulated clock
// (X-Checkpoint-Cycle) and the state's body hash (X-Checkpoint-Body-Hash),
// which is the base token for the caller's next fetch.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpkit.Error(w, http.StatusNotFound, "no such job")
		return
	}
	base, frames, tip, cycle := j.snapshotChain()
	if base == nil {
		if p := s.checkpointPath(j.key); p != "" {
			if blob, err := os.ReadFile(p); err == nil {
				s.ckpts.touch(j.key)
				writeFullCheckpoint(w, blob, 0)
				return
			}
		}
		httpkit.WriteJSON(w, http.StatusNotFound, map[string]string{
			"error": "no checkpoint for this job",
			"hint":  "lease-scoped jobs (?lease=<duration>) snapshot every progress slice; canceled jobs checkpoint when the daemon runs with -checkpointdir",
		})
		return
	}
	if baseHex := r.URL.Query().Get("base"); baseHex != "" {
		if want, err := hex.DecodeString(baseHex); err == nil && len(want) == len(tip) {
			if suffix, ok := snap.FramesAfter(base, frames, [32]byte(want)); ok {
				w.Header().Set("Content-Type", "application/octet-stream")
				w.Header().Set("X-Checkpoint-Format", "delta-chain")
				w.Header().Set("X-Checkpoint-Cycle", fmt.Sprintf("%d", cycle))
				w.Header().Set("X-Checkpoint-Body-Hash", hex.EncodeToString(tip[:]))
				w.Write(snap.FrameLog(suffix))
				return
			}
		}
		// An unknown base (the chain rebased past it, or the hash is
		// garbage) degrades to the full blob below — never an error.
	}
	blob, err := snap.ApplyChain(base, frames...)
	if err != nil {
		// The producer verifies every frame's lineage before appending, so
		// this is unreachable short of memory corruption.
		httpkit.Error(w, http.StatusInternalServerError, fmt.Sprintf("assembling checkpoint: %v", err))
		return
	}
	writeFullCheckpoint(w, blob, cycle)
}

// writeFullCheckpoint writes a complete checkpoint blob with the headers
// the delta negotiation relies on; the body hash seeds the caller's next
// ?base= fetch.
func writeFullCheckpoint(w http.ResponseWriter, blob []byte, cycle int64) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Checkpoint-Format", "full")
	w.Header().Set("X-Checkpoint-Cycle", fmt.Sprintf("%d", cycle))
	if body, err := snap.OpenBody(blob); err == nil {
		hash := snap.BodyHash(body)
		w.Header().Set("X-Checkpoint-Body-Hash", hex.EncodeToString(hash[:]))
	}
	w.Write(blob)
}

// maxCheckpointBytes bounds a handed-off checkpoint blob; gzipped blobs
// run tens of kilobytes, so 32 MiB is generous headroom.
const maxCheckpointBytes = 32 << 20

// handlePutCheckpoint deposits a checkpoint blob for a request key so the
// next ?resume=1 submission of that request restores it instead of
// recomputing — the coordinator's handoff path when it moves a dead
// worker's half-finished job to this node.
func (s *Server) handlePutCheckpoint(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	blob, ok := httpkit.ReadBody(w, r, maxCheckpointBytes, "checkpoint")
	if !ok {
		return
	}
	if len(blob) == 0 {
		httpkit.Error(w, http.StatusBadRequest, "empty checkpoint blob")
		return
	}
	// Decode now, not at resume time: a corrupt blob answers 400 to the
	// depositor instead of silently costing the replacement run its
	// fast-forward.
	if _, err := adaptnoc.RestoreSim(blob); err != nil {
		httpkit.Error(w, http.StatusBadRequest, fmt.Sprintf("invalid checkpoint: %v", err))
		return
	}
	s.handoff.put(key, blob, int64(len(blob)))
	httpkit.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "bytes": len(blob)})
}

func (s *Server) addJob(j *job) {
	s.jobsMu.Lock()
	s.jobs[j.id] = j
	s.jobsMu.Unlock()
}

func (s *Server) lookup(id string) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpkit.Error(w, http.StatusNotFound, "no such job")
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	infos := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		info := j.info()
		info.Results = nil // summaries only; fetch one job for its results
		infos = append(infos, info)
	}
	s.jobsMu.Unlock()
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
	httpkit.WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpkit.Error(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	// A queued job can be finished right here; a running one stops at the
	// worker's next cancellation poll (within one control epoch).
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		s.finishJob(j, StateCanceled, nil, "canceled while queued")
	}
	httpkit.WriteJSON(w, http.StatusOK, j.info())
}

// handleEvents streams the job's progress as SSE: one "epoch" frame per
// control-epoch slice, then a "done" frame with the job's final state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpkit.Error(w, http.StatusNotFound, "no such job")
		return
	}
	httpkit.ServeSSE(w, r, &j.events, "epoch", func() any {
		info := j.info()
		info.Results = nil // the results document is fetched, not streamed
		return info
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admitMu.Lock()
	draining := s.draining
	s.admitMu.Unlock()
	if draining {
		httpkit.Error(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// validationError writes a 400 whose body names the offending field by its
// JSON path and, when the validator knows one, a remediation hint — so a
// client can fix the request without reading the simulator's source:
//
//	{"error": "...", "field": "config.apps[1].region", "hint": "shrink ..."}
//
// Errors that are not field errors (malformed JSON, unknown fields) fall
// back to the plain {"error": ...} shape.
func validationError(w http.ResponseWriter, err error) {
	var fe *adaptnoc.FieldError
	if !errors.As(err, &fe) {
		httpkit.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	body := map[string]string{"error": err.Error(), "field": fe.Field}
	if fe.Hint != "" {
		body["hint"] = fe.Hint
	}
	httpkit.WriteJSON(w, http.StatusBadRequest, body)
}
