package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"adaptnoc"
	"adaptnoc/internal/httpkit"
	"adaptnoc/internal/snap"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle: queued → running → one of the three terminal states.
// Cache hits are born done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one per-epoch progress report, streamed over SSE while a job
// runs: how far the simulated clock has advanced and how effective the
// idle-skip work lists are for this workload.
type Event struct {
	Cycle           int64   `json:"cycle"`
	RouterSkipRate  float64 `json:"routerSkipRate"`
	ChannelSkipRate float64 `json:"channelSkipRate"`
}

// JobInfo is the wire representation of a job (POST /v1/sims and
// GET /v1/jobs/{id} responses).
type JobInfo struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Key is the content address of the canonical request.
	Key string `json:"key"`
	// Cache is "hit" when the result was served from the cache without
	// running, "miss" otherwise.
	Cache string `json:"cache"`
	// Seq is the completion order across the daemon's lifetime (1-based);
	// 0 while not terminal.
	Seq   int64  `json:"seq,omitempty"`
	Error string `json:"error,omitempty"`
	// Results carries the marshaled adaptnoc.Results for done jobs. It is
	// stored marshaled-once, so resubmissions of the same request return
	// byte-identical documents.
	Results json.RawMessage `json:"results,omitempty"`
	// Resumed marks a job created by POST /v1/jobs/{id}/resume.
	Resumed bool `json:"resumed,omitempty"`
	// Checkpoint reports that a mid-run checkpoint was persisted for this
	// job's request — a canceled job with Checkpoint set resumes from where
	// it stopped instead of from cycle zero.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// CheckpointCycle is the simulated clock of the job's latest in-memory
	// snapshot (lease-scoped jobs snapshot once per progress slice; 0 means
	// none yet). A fleet coordinator polls it to decide when to shadow-fetch
	// GET /v1/jobs/{id}/checkpoint for handoff.
	CheckpointCycle int64 `json:"checkpointCycle,omitempty"`
}

// job is the server-side record.
type job struct {
	id      string
	key     string
	req     Request // canonical
	hit     bool
	resumed bool          // created via the resume endpoint or ?resume=1
	lease   time.Duration // non-zero for lease-scoped jobs; set before admit
	ctx     context.Context
	cancel  context.CancelFunc

	mu           sync.Mutex
	state        State
	seq          int64
	errMsg       string
	result       []byte // marshaled Results, nil unless done
	checkpointed bool   // a mid-run checkpoint exists on disk
	// Lease-scoped jobs shadow their state in memory as a rolling delta
	// chain: a full base blob plus the frames extending it, oldest first.
	// snapTip names the chain's endpoint by body hash so a fetcher that
	// already holds an earlier link can ask for just the frames after it.
	snapBase      []byte
	snapFrames    [][]byte
	snapTip       [32]byte
	snapshotCycle int64
	leaseTimer    *time.Timer // cancels the job when the lease lapses

	events httpkit.Log[Event] // progress; closed on reaching a terminal state
}

func newJob(id, key string, req Request) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id: id, key: key, req: req,
		ctx: ctx, cancel: cancel,
		state: StateQueued,
	}
}

// info snapshots the wire representation.
func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	cache := "miss"
	if j.hit {
		cache = "hit"
	}
	return JobInfo{
		ID: j.id, State: j.state, Key: j.key, Cache: cache,
		Seq: j.seq, Error: j.errMsg, Results: j.result,
		Resumed: j.resumed, Checkpoint: j.checkpointed,
		CheckpointCycle: j.snapshotCycle,
	}
}

// armLease starts the lease clock on a lease-scoped job: unless renewed,
// the job is canceled when the lease lapses (the queue wait counts — a
// coordinator renews from admission onward). No-op without a lease.
func (j *job) armLease() {
	if j.lease <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.leaseTimer != nil {
		return
	}
	j.leaseTimer = time.AfterFunc(j.lease, j.cancel)
}

// renewLease pushes the lease deadline out by one lease interval. It
// reports false when the job carries no lease or already ended — the
// caller turned its back too long and must reschedule, not renew.
func (j *job) renewLease() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.leaseTimer == nil || j.state.Terminal() {
		return false
	}
	j.leaseTimer.Stop()
	j.leaseTimer.Reset(j.lease)
	return true
}

// maxShadowDeltas bounds the in-memory chain length before shadow rebases
// onto a fresh full blob. Serving a full checkpoint applies the whole
// chain, so the bound keeps that cost (and the chain's memory) flat while
// still letting a polling coordinator fetch kilobyte deltas between
// rebases.
const maxShadowDeltas = 16

// shadow records the simulation's current state in the job's rolling
// chain: a cheap delta frame extending the previous shadow when the chain
// lineage is intact, a full rebase otherwise (first shadow, chain at its
// length bound, or a lineage break). Called only by the job's own worker,
// once per progress slice.
func (j *job) shadow(simu *adaptnoc.Sim) {
	cycle := int64(simu.Kernel.Now())
	j.mu.Lock()
	haveBase, nFrames, tip := j.snapBase != nil, len(j.snapFrames), j.snapTip
	j.mu.Unlock()
	if haveBase && nFrames < maxShadowDeltas {
		if frame, err := simu.CheckpointDeltaChained(); err == nil {
			if fBase, fTip, herr := snap.DeltaHashes(frame); herr == nil && fBase == tip {
				j.mu.Lock()
				j.snapFrames = append(j.snapFrames, frame)
				j.snapTip = fTip
				j.snapshotCycle = cycle
				j.mu.Unlock()
				return
			}
		}
	}
	blob, err := simu.Checkpoint()
	if err != nil {
		return // e.g. a shared-agent config; the job just has no shadow
	}
	hash, _ := simu.CheckpointBodyHash()
	j.mu.Lock()
	j.snapBase, j.snapFrames, j.snapTip, j.snapshotCycle = blob, nil, hash, cycle
	j.mu.Unlock()
}

// snapshotChain returns the shadowed chain: the full base blob, the delta
// frames extending it (oldest first), the tip's body hash, and the tip's
// simulated clock. base is nil when no shadow exists yet. The returned
// slices are shared with the producer but never mutated in place.
func (j *job) snapshotChain() (base []byte, frames [][]byte, tip [32]byte, cycle int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapBase, j.snapFrames, j.snapTip, j.snapshotCycle
}

// setRunning moves queued → running; it reports false when the job already
// reached a terminal state (canceled while waiting in the queue), in which
// case the worker must not execute it.
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// finish moves the job to a terminal state exactly once, closes its event
// log, and reports whether this call was the one that did it (so counters
// increment exactly once even when cancel races a worker).
func (j *job) finish(state State, seq int64, result []byte, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.seq = seq
	j.result = result
	j.errMsg = errMsg
	if j.leaseTimer != nil {
		j.leaseTimer.Stop()
		j.leaseTimer = nil
	}
	j.events.Close()
	return true
}
