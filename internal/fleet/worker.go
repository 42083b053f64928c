package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptnoc/internal/serve"
)

// worker is one registered serve daemon: identity, a health record fed by
// heartbeats, probes, and every RPC outcome, and the HTTP client the
// reconcile loop drives it with.
type worker struct {
	id  string
	url string

	client *http.Client

	mu       sync.Mutex
	lastSeen time.Time
	dead     bool // last contact failed; any successful contact revives

	inflight atomic.Int64 // leases the coordinator currently holds here
}

// WorkerInfo is the wire representation of a registered worker
// (GET /v1/workers).
type WorkerInfo struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
	// LastSeenMS is how long ago the worker last proved liveness, in
	// milliseconds.
	LastSeenMS int64 `json:"lastSeenMs"`
}

func newWorker(id, url string) *worker {
	return &worker{
		id: id, url: url,
		client:   &http.Client{Timeout: 15 * time.Second},
		lastSeen: time.Now(),
	}
}

// noteAlive records a successful contact (heartbeat, probe, or RPC).
func (w *worker) noteAlive() {
	w.mu.Lock()
	w.lastSeen = time.Now()
	w.dead = false
	w.mu.Unlock()
}

// markDead records a failed contact; the worker stays out of scheduling
// until something succeeds against it again.
func (w *worker) markDead() {
	w.mu.Lock()
	w.dead = true
	w.mu.Unlock()
}

// healthy reports whether the worker is schedulable: not marked dead and
// seen within the TTL.
func (w *worker) healthy(ttl time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.dead && time.Since(w.lastSeen) < ttl
}

func (w *worker) info(ttl time.Duration) WorkerInfo {
	w.mu.Lock()
	lastSeen, dead := w.lastSeen, w.dead
	w.mu.Unlock()
	return WorkerInfo{
		ID: w.id, URL: w.url,
		Healthy:    !dead && time.Since(lastSeen) < ttl,
		Inflight:   w.inflight.Load(),
		LastSeenMS: time.Since(lastSeen).Milliseconds(),
	}
}

// call sends one request and reads the whole reply; only a transport or
// read failure is an error, the status is the caller's to judge. body is
// nil (no body), raw bytes, or a value sent as JSON.
func call(ctx context.Context, client *http.Client, method, url string, body any) (*http.Response, []byte, error) {
	var rd io.Reader
	ctype := ""
	switch b := body.(type) {
	case nil:
	case []byte:
		rd, ctype = bytes.NewReader(b), "application/octet-stream"
	default:
		blob, err := json.Marshal(b)
		if err != nil {
			return nil, nil, err
		}
		rd, ctype = bytes.NewReader(blob), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, blob, nil
}

// call sends one request to this worker (see the package-level call).
func (w *worker) call(method, path string, body any) (*http.Response, []byte, error) {
	return call(context.Background(), w.client, method, w.url+path, body)
}

// probe checks the worker's /healthz. Active probing keeps statically
// registered workers (no self-heartbeat) schedulable and notices abrupt
// deaths between polls.
func (w *worker) probe() bool {
	resp, _, err := w.call(http.MethodGet, "/healthz", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		w.markDead()
		return false
	}
	w.noteAlive()
	return true
}

// submit posts a lease-scoped job. A 429 answer is backpressure, not
// failure: it returns the jittered Retry-After as a wait with no error.
func (w *worker) submit(req serve.Request, lease time.Duration, resume bool) (serve.JobInfo, time.Duration, error) {
	path := fmt.Sprintf("/v1/sims?lease=%s", lease)
	if resume {
		path += "&resume=1"
	}
	resp, blob, err := w.call(http.MethodPost, path, req)
	if err != nil {
		return serve.JobInfo{}, 0, err
	}
	w.noteAlive()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		var info serve.JobInfo
		err := json.Unmarshal(blob, &info)
		return info, 0, err
	case http.StatusTooManyRequests:
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs <= 0 {
			secs = 1
		}
		return serve.JobInfo{}, time.Duration(secs) * time.Second, nil
	default:
		return serve.JobInfo{}, 0, fmt.Errorf("fleet: %s: submit: %s: %s", w.id, resp.Status, blob)
	}
}

func (w *worker) getJob(id string) (serve.JobInfo, error) {
	resp, blob, err := w.call(http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return serve.JobInfo{}, err
	}
	w.noteAlive()
	if resp.StatusCode != http.StatusOK {
		return serve.JobInfo{}, fmt.Errorf("fleet: %s: job %s: %s", w.id, id, resp.Status)
	}
	var info serve.JobInfo
	err = json.Unmarshal(blob, &info)
	return info, err
}

// renewLease pushes the job's lease out by one interval. Best-effort: a
// 409 means the lease already lapsed, which the next poll observes as a
// canceled job.
func (w *worker) renewLease(id string) {
	if _, _, err := w.call(http.MethodPost, "/v1/jobs/"+id+"/lease", nil); err == nil {
		w.noteAlive()
	}
}

// getCheckpoint fetches the job's latest state for shadowing. When
// baseHex names a body hash the caller already holds, the worker may
// answer with just the delta frames extending it (format "delta-chain",
// body a snap frame log) instead of the full blob (format "full"). tipHex
// is the fetched state's body hash — the caller's base token next time.
func (w *worker) getCheckpoint(id, baseHex string) (blob []byte, cycle int64, format, tipHex string, err error) {
	path := "/v1/jobs/" + id + "/checkpoint"
	if baseHex != "" {
		path += "?base=" + baseHex
	}
	resp, blob, err := w.call(http.MethodGet, path, nil)
	if err != nil {
		return nil, 0, "", "", err
	}
	w.noteAlive()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, "", "", fmt.Errorf("fleet: %s: checkpoint of %s: %s", w.id, id, resp.Status)
	}
	cycle, _ = strconv.ParseInt(resp.Header.Get("X-Checkpoint-Cycle"), 10, 64)
	return blob, cycle, resp.Header.Get("X-Checkpoint-Format"), resp.Header.Get("X-Checkpoint-Body-Hash"), nil
}

// putCheckpoint deposits a handed-off blob under a request key so the next
// ?resume=1 submission restores it.
func (w *worker) putCheckpoint(key string, blob []byte) error {
	resp, _, err := w.call(http.MethodPut, "/v1/checkpoints/"+key, blob)
	if err != nil {
		return err
	}
	w.noteAlive()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: checkpoint deposit: %s", w.id, resp.Status)
	}
	return nil
}

// cancelJob DELETEs a job, best-effort (losing side of a steal, teardown).
func (w *worker) cancelJob(id string) {
	w.call(http.MethodDelete, "/v1/jobs/"+id, nil)
}

// Enroll registers a serve daemon with a coordinator and heartbeats until
// ctx ends, re-registering whenever the coordinator forgets it (restart,
// eviction). It is the worker half of the enrollment surface — wire it to
// adaptnoc-serve -enroll.
func Enroll(ctx context.Context, coordinatorURL, selfURL string, interval time.Duration) error {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	client := &http.Client{Timeout: 10 * time.Second}
	register := func() (string, error) {
		resp, blob, err := call(ctx, client, http.MethodPost, coordinatorURL+"/v1/workers", map[string]string{"url": selfURL})
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return "", fmt.Errorf("fleet: enroll: %s: %s", resp.Status, blob)
		}
		var info WorkerInfo
		err = json.Unmarshal(blob, &info)
		return info.ID, err
	}

	id := ""
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if id == "" {
			if got, err := register(); err == nil {
				id = got
			}
		} else {
			resp, _, err := call(ctx, client, http.MethodPost, coordinatorURL+"/v1/workers/"+id+"/heartbeat", nil)
			if err == nil && resp.StatusCode == http.StatusNotFound {
				id = "" // coordinator forgot us; re-register next tick
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
