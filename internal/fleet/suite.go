package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"

	"adaptnoc"
	"adaptnoc/internal/exp"
	"adaptnoc/internal/httpkit"
	"adaptnoc/internal/serve"
)

// SuiteState is a suite's lifecycle position.
type SuiteState string

// Suite lifecycle: running → done or failed.
const (
	SuiteRunning SuiteState = "running"
	SuiteDone    SuiteState = "done"
	SuiteFailed  SuiteState = "failed"
)

// SuiteEvent is one progress report, streamed over SSE while a suite runs:
// an evaluation starting or finishing, keyed by its content address.
type SuiteEvent struct {
	// Phase is item-start, item-done, or item-failed.
	Phase string `json:"phase"`
	// Key is the work item's content address (serve.RequestKey).
	Key string `json:"key,omitempty"`
	// Started and Done count this suite's evaluations so far. The total is
	// not known upfront — later configurations depend on earlier results
	// (the oracle probes gate the static-mapping runs).
	Started int    `json:"started"`
	Done    int    `json:"done"`
	Error   string `json:"error,omitempty"`
}

// SuiteInfo is the wire representation of a suite (POST /v1/suites and
// GET /v1/suites/{id} responses).
type SuiteInfo struct {
	ID       string     `json:"id"`
	State    SuiteState `json:"state"`
	Manifest Manifest   `json:"manifest"`
	Started  int        `json:"started"`
	Done     int        `json:"done"`
	Error    string     `json:"error,omitempty"`
	// Tables and Bytes describe the rendered output of a done suite
	// (GET /v1/suites/{id}/output).
	Tables int `json:"tables,omitempty"`
	Bytes  int `json:"bytes,omitempty"`
}

// suiteRecord is the server-side suite.
type suiteRecord struct {
	id       string
	manifest Manifest

	mu       sync.Mutex
	state    SuiteState
	errMsg   string
	output   []byte // rendered tables, byte-identical to the CLI's stdout
	tables   int
	started  int
	finished int
	events   httpkit.Log[SuiteEvent] // closed on reaching a terminal state
}

func newSuiteRecord(id string, m Manifest) *suiteRecord {
	return &suiteRecord{id: id, manifest: m, state: SuiteRunning}
}

func (sr *suiteRecord) info() SuiteInfo {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return SuiteInfo{
		ID: sr.id, State: sr.state, Manifest: sr.manifest,
		Started: sr.started, Done: sr.finished, Error: sr.errMsg,
		Tables: sr.tables, Bytes: len(sr.output),
	}
}

// emit counts a progress event and appends it to the suite's event log.
func (sr *suiteRecord) emit(phase, key, errMsg string) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.state != SuiteRunning {
		return
	}
	switch phase {
	case "item-start":
		sr.started++
	case "item-done", "item-failed":
		sr.finished++
	}
	sr.events.Append(SuiteEvent{Phase: phase, Key: key, Started: sr.started, Done: sr.finished, Error: errMsg})
}

// finish moves the suite to a terminal state exactly once and closes its
// event log.
func (sr *suiteRecord) finish(state SuiteState, output []byte, tables int, errMsg string) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.state != SuiteRunning {
		return
	}
	sr.state = state
	sr.output = output
	sr.tables = tables
	sr.errMsg = errMsg
	sr.events.Close()
}

// runSuite executes one suite end to end: the exact planner and
// table-assembly code the adaptnoc-experiments CLI runs (exp.RunSuite),
// with evaluations routed through the fleet via exp.Options.Eval. The
// rendered output is therefore byte-identical to a local run of the same
// manifest — the suite's whole correctness story in one sentence.
func (c *Coordinator) runSuite(sr *suiteRecord) {
	defer c.wg.Done()
	o := sr.manifest.Options()
	o.Parallelism = c.opts.Parallelism
	o.Eval = func(ctx context.Context, cfg adaptnoc.Config, limit adaptnoc.Cycle) (adaptnoc.Results, error) {
		// Tie the evaluation to the coordinator's lifetime as well as the
		// planner's own cancellation.
		evalCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(c.ctx, cancel)
		defer stop()

		req := requestTo(cfg, limit)
		key, err := serve.RequestKey(req)
		if err != nil {
			return adaptnoc.Results{}, err
		}
		sr.emit("item-start", key, "")
		res, err := c.evalItem(evalCtx, key, req)
		if err != nil {
			sr.emit("item-failed", key, err.Error())
			return adaptnoc.Results{}, err
		}
		sr.emit("item-done", key, "")
		return res, nil
	}

	tables, err := exp.RunSuite(o, sr.manifest.Params())
	if err != nil {
		c.logf("fleet: %s failed: %v", sr.id, err)
		sr.finish(SuiteFailed, nil, 0, err.Error())
		return
	}
	var buf bytes.Buffer
	for _, t := range tables {
		t.Print(&buf)
	}
	c.logf("fleet: %s done: %d tables, %d bytes", sr.id, len(tables), buf.Len())
	sr.finish(SuiteDone, buf.Bytes(), len(tables), "")
}

// --- suite handlers ---

// maxManifestBytes bounds a suite submission body.
const maxManifestBytes = 1 << 20

func (c *Coordinator) handleCreateSuite(w http.ResponseWriter, r *http.Request) {
	body, ok := httpkit.ReadBody(w, r, maxManifestBytes, "body")
	if !ok {
		return
	}
	m, err := ParseManifest(body)
	if err != nil {
		httpkit.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	c.mu.Lock()
	c.nextSuite++
	sr := newSuiteRecord(fmt.Sprintf("suite-%d", c.nextSuite), m)
	c.suites[sr.id] = sr
	c.suiteOrder = append(c.suiteOrder, sr.id)
	c.mu.Unlock()
	c.suitesTotal.Add(1)
	c.logf("fleet: accepted %s (figs=%v quick=%v)", sr.id, m.Figs, m.Quick)
	c.wg.Add(1)
	go c.runSuite(sr)
	httpkit.WriteJSON(w, http.StatusAccepted, sr.info())
}

func (c *Coordinator) lookupSuite(id string) *suiteRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suites[id]
}

func (c *Coordinator) handleSuites(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	order := append([]string(nil), c.suiteOrder...)
	records := make([]*suiteRecord, 0, len(order))
	for _, id := range order {
		records = append(records, c.suites[id])
	}
	c.mu.Unlock()
	infos := make([]SuiteInfo, 0, len(records))
	for _, sr := range records {
		infos = append(infos, sr.info())
	}
	httpkit.WriteJSON(w, http.StatusOK, infos)
}

func (c *Coordinator) handleSuite(w http.ResponseWriter, r *http.Request) {
	sr := c.lookupSuite(r.PathValue("id"))
	if sr == nil {
		httpkit.Error(w, http.StatusNotFound, "no such suite")
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, sr.info())
}

// handleSuiteOutput serves a done suite's rendered tables — the bytes a
// local adaptnoc-experiments run of the same manifest writes to stdout.
func (c *Coordinator) handleSuiteOutput(w http.ResponseWriter, r *http.Request) {
	sr := c.lookupSuite(r.PathValue("id"))
	if sr == nil {
		httpkit.Error(w, http.StatusNotFound, "no such suite")
		return
	}
	sr.mu.Lock()
	state, errMsg, output := sr.state, sr.errMsg, sr.output
	sr.mu.Unlock()
	switch state {
	case SuiteRunning:
		httpkit.Error(w, http.StatusConflict, "suite is still running (watch /v1/suites/{id}/events)")
	case SuiteFailed:
		httpkit.Error(w, http.StatusConflict, fmt.Sprintf("suite failed: %s", errMsg))
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(output)
	}
}

// handleSuiteEvents streams the suite's progress as SSE: one "item" frame
// per evaluation starting or finishing, then a "done" frame with the
// suite's final state.
func (c *Coordinator) handleSuiteEvents(w http.ResponseWriter, r *http.Request) {
	sr := c.lookupSuite(r.PathValue("id"))
	if sr == nil {
		httpkit.Error(w, http.StatusNotFound, "no such suite")
		return
	}
	httpkit.ServeSSE(w, r, &sr.events, "item", func() any { return sr.info() })
}
