package serve_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptnoc"
	"adaptnoc/internal/serve"
	"adaptnoc/internal/snap"
)

// newTestServer starts a daemon behind httptest and registers a drain on
// cleanup. Tests that park slow jobs must DELETE them before returning so
// the drain stays fast.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	srv := serve.New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("drain on cleanup: %v", err)
		}
		ts.Close()
	})
	return srv, ts.URL
}

// fastRequest is a cheap two-app baseline run: a couple of thousand cycles
// finishes in well under a second.
func fastRequest(seed uint64) serve.Request {
	return serve.Request{
		Config: adaptnoc.Config{
			Design: adaptnoc.DesignBaseline,
			Apps: []adaptnoc.AppSpec{
				{Profile: "bfs", Region: adaptnoc.Region{X: 0, Y: 0, W: 4, H: 4}},
				{Profile: "canneal", Region: adaptnoc.Region{X: 4, Y: 0, W: 4, H: 4}},
			},
			Seed:        seed,
			EpochCycles: 1000,
		},
		Cycles: 3000,
	}
}

// slowRequest occupies a worker for a long time unless canceled: the
// cancellation poll runs every 1024 cycles, so DELETE still lands quickly.
func slowRequest(seed uint64) serve.Request {
	req := fastRequest(seed)
	req.Config.EpochCycles = 0 // default 50000-cycle epochs
	req.Cycles = 2_000_000_000
	return req
}

func submit(t *testing.T, base string, req serve.Request) (serve.JobInfo, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sims", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info serve.JobInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(blob, &info); err != nil {
			t.Fatalf("decoding %s: %v", blob, err)
		}
	}
	return info, resp
}

func getJob(t *testing.T, base, id string) serve.JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	var info serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := getJob(t, base, id)
		if info.State.Terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, info.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitState(t *testing.T, base, id string, want serve.State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := getJob(t, base, id)
		if info.State == want {
			return
		}
		if info.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in state %s, want %s", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cancelJob(t *testing.T, base, id string) serve.JobInfo {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestSubmitAndComplete(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	info, resp := submit(t, base, fastRequest(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if info.Cache != "miss" || info.Key == "" {
		t.Errorf("fresh submission: cache=%s key=%q", info.Cache, info.Key)
	}
	done := waitTerminal(t, base, info.ID, 30*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.Seq == 0 {
		t.Error("terminal job has no completion sequence number")
	}
	res, err := adaptnoc.ParseResults(done.Results)
	if err != nil {
		t.Fatalf("results do not parse: %v", err)
	}
	if res.Cycles != 3000 {
		t.Errorf("ran %d cycles, want 3000", res.Cycles)
	}
}

// An invalid configuration must come back as a structured 400 naming the
// offending field by its JSON path and carrying a remediation hint, so a
// client can fix the request without reading simulator source.
func TestSubmitValidationErrorIsActionable(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	req := fastRequest(1)
	req.Config.Apps[1].Region = adaptnoc.Region{X: 6, Y: 0, W: 4, H: 4} // off the 8x8 chip
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sims", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config: %s", resp.Status)
	}
	var fields struct {
		Error string `json:"error"`
		Field string `json:"field"`
		Hint  string `json:"hint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatal(err)
	}
	if fields.Field != "config.apps[1].region" {
		t.Errorf("field = %q, want config.apps[1].region", fields.Field)
	}
	if fields.Hint == "" || !strings.Contains(fields.Error, "outside the 8x8 grid") {
		t.Errorf("error lacks remediation: error=%q hint=%q", fields.Error, fields.Hint)
	}
}

// Resubmitting an identical request must come back from the cache, marked
// as a hit, with byte-identical results — determinism makes the cache
// exact, not approximate.
func TestCacheHitByteIdentical(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	first, _ := submit(t, base, fastRequest(2))
	done := waitTerminal(t, base, first.ID, 30*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("first job ended %s: %s", done.State, done.Error)
	}

	second, resp := submit(t, base, fastRequest(2))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cached submission status %s, want 200", resp.Status)
	}
	if second.Cache != "hit" || second.State != serve.StateDone {
		t.Fatalf("resubmission: cache=%s state=%s", second.Cache, second.State)
	}
	if !bytes.Equal(second.Results, done.Results) {
		t.Error("cached results are not byte-identical to the computed results")
	}
	if second.Key != done.Key {
		t.Errorf("keys differ: %s vs %s", second.Key, done.Key)
	}

	// A different seed is a different simulation: miss.
	third, _ := submit(t, base, fastRequest(3))
	if third.Cache != "miss" {
		t.Errorf("different seed served from cache")
	}
	cancelJob(t, base, third.ID)

	// The paper's design on its mixed workload (reconfiguring subNoCs, the
	// DQN controller, every layer's state in the Results document) caches
	// byte-identically too.
	adapt := serve.Request{
		Config: adaptnoc.Config{Design: adaptnoc.DesignAdaptNoC, Apps: adaptnoc.DefaultMixed(0), Seed: 2021},
		Cycles: 20000,
	}
	info, _ := submit(t, base, adapt)
	computed := waitTerminal(t, base, info.ID, 2*time.Minute)
	if computed.State != serve.StateDone {
		t.Fatalf("adapt-noc job ended %s: %s", computed.State, computed.Error)
	}
	res, err := adaptnoc.ParseResults(computed.Results)
	if err != nil {
		t.Fatalf("adapt-noc results do not parse: %v", err)
	}
	if res.Cycles != adapt.Cycles {
		t.Errorf("adapt-noc job ran %d cycles, want %d", res.Cycles, adapt.Cycles)
	}
	again, resp := submit(t, base, adapt)
	if resp.StatusCode != http.StatusOK || again.Cache != "hit" || again.State != serve.StateDone {
		t.Fatalf("adapt-noc resubmission: %s cache=%s state=%s", resp.Status, again.Cache, again.State)
	}
	if !bytes.Equal(again.Results, computed.Results) {
		t.Error("cached adapt-noc results are not byte-identical to the computed results")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})

	running, _ := submit(t, base, slowRequest(10))
	waitState(t, base, running.ID, serve.StateRunning, 10*time.Second)
	queued, resp := submit(t, base, slowRequest(11))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission: %s, want 202", resp.Status)
	}

	_, resp = submit(t, base, slowRequest(12))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Canceling the queued job frees its slot without a worker.
	info := cancelJob(t, base, queued.ID)
	if info.State != serve.StateCanceled {
		t.Errorf("queued job after DELETE: %s, want canceled", info.State)
	}
	cancelJob(t, base, running.ID)
	waitTerminal(t, base, running.ID, 10*time.Second)
}

// DELETE on a running job must take effect at the next cancellation poll —
// comfortably within one control epoch, observed here as wall-clock
// seconds rather than the hours the full window would take.
func TestCancelRunningJob(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1})
	info, _ := submit(t, base, slowRequest(20))
	waitState(t, base, info.ID, serve.StateRunning, 10*time.Second)
	cancelJob(t, base, info.ID)
	done := waitTerminal(t, base, info.ID, 10*time.Second)
	if done.State != serve.StateCanceled {
		t.Fatalf("job ended %s, want canceled", done.State)
	}
}

// With one worker, jobs complete in submission order and the completion
// sequence numbers record it.
func TestOrderedCompletion(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1})
	var ids []string
	for seed := uint64(30); seed < 33; seed++ {
		info, resp := submit(t, base, fastRequest(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", seed, resp.Status)
		}
		ids = append(ids, info.ID)
	}
	for i, id := range ids {
		done := waitTerminal(t, base, id, 30*time.Second)
		if done.State != serve.StateDone {
			t.Fatalf("job %s ended %s: %s", id, done.State, done.Error)
		}
		if done.Seq != int64(i+1) {
			t.Errorf("job %s completed with seq %d, want %d", id, done.Seq, i+1)
		}
	}
}

func TestSSEEventStream(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	info, _ := submit(t, base, fastRequest(40))

	resp, err := http.Get(base + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	// The handler closes the stream after the final "done" event, so the
	// whole stream can be read to EOF.
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	frames := strings.Split(strings.TrimSuffix(string(stream), "\n\n"), "\n\n")
	var epochs []serve.Event
	var final serve.JobInfo
	sawDone := false
	for _, frame := range frames {
		lines := strings.SplitN(frame, "\n", 2)
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "event: ") || !strings.HasPrefix(lines[1], "data: ") {
			t.Fatalf("malformed SSE frame: %q", frame)
		}
		data := strings.TrimPrefix(lines[1], "data: ")
		switch name := strings.TrimPrefix(lines[0], "event: "); name {
		case "epoch":
			var ev serve.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("epoch frame %q: %v", data, err)
			}
			epochs = append(epochs, ev)
		case "done":
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				t.Fatalf("done frame %q: %v", data, err)
			}
			sawDone = true
		default:
			t.Fatalf("unexpected event %q", name)
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	// 3000 cycles at 1000-cycle epochs: three progress reports, with the
	// simulated clock advancing monotonically to the full window.
	if len(epochs) != 3 {
		t.Fatalf("got %d epoch events, want 3", len(epochs))
	}
	for i, ev := range epochs {
		if want := int64(1000 * (i + 1)); ev.Cycle != want {
			t.Errorf("epoch %d at cycle %d, want %d", i, ev.Cycle, want)
		}
	}
	if final.State != serve.StateDone {
		t.Errorf("final event state %s: %s", final.State, final.Error)
	}
	if len(final.Results) != 0 {
		t.Error("done event carries the results document; it should be fetched instead")
	}
}

// Shutdown must stop admission immediately but let admitted jobs finish.
func TestDrainOnShutdown(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := ts.URL

	info, _ := submit(t, base, fastRequest(50))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	done := getJob(t, base, info.ID)
	if done.State != serve.StateDone {
		t.Errorf("in-flight job after drain: %s (%s), want done", done.State, done.Error)
	}
	if _, resp := submit(t, base, fastRequest(51)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while drained: %s, want 503", resp.Status)
	}
	if resp, err := http.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz while drained: %s, want 503", resp.Status)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	post := func(body string) (int, string) {
		resp, err := http.Post(base+"/v1/sims", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(blob)
	}

	if code, body := post(`{"config": {"design": "warp-drive", "apps": []}}`); code != http.StatusBadRequest {
		t.Errorf("unknown design: %d %s", code, body)
	}
	if code, body := post(`{"config": {"design": "baseline", "apps": [{"profile": "bfs", "region": {"w": 4, "h": 4}}]}, "turbo": true}`); code != http.StatusBadRequest || !strings.Contains(body, "turbo") {
		t.Errorf("unknown field not named: %d %s", code, body)
	}
	if code, body := post(`{"config": {"design": "baseline", "apps": [{"profile": "bfs", "region": {"w": 4, "h": 4}}]}, "cycles": -5}`); code != http.StatusBadRequest || !strings.Contains(body, "cycles") {
		t.Errorf("negative window not named: %d %s", code, body)
	}
	if code, body := post(`{"config": {"design": "baseline", "apps": [{"profile": "nope", "region": {"w": 4, "h": 4}}]}}`); code != http.StatusBadRequest || !strings.Contains(body, "config.apps[0].profile") {
		t.Errorf("bad profile not named by JSON path: %d %s", code, body)
	}

	if resp, err := http.Get(base + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing job: %s, want 404", resp.Status)
		}
	}
}

// Config keys that once set model constants (memory timing, the energy
// model, fixed DQN hyper-parameters, Shortcut's link budget, FTBY-PG's
// gating timing) are unknown fields now: a submission carrying one is a
// 400 naming it, never a run. The memory and power values are inputs that
// used to crash or poison a run.
func TestRemovedConfigKnobsAnswer400(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	for _, tc := range []struct{ key, fragment string }{
		{"memory", `"memory":{"l2LatencyCycles":8,"mcLatencyCycles":-100,"mcServiceCycles":2}`},
		{"power", `"power":{"clockGHz":0}`},
		{"dqn", `"rl":{"dqn":{"replaySize":1000}}`},
		{"shortcutLinksPerApp", `"shortcutLinksPerApp":2`},
		{"pgWakeCycles", `"pgWakeCycles":16`},
		{"pgIdleCycles", `"pgIdleCycles":10`},
	} {
		body := `{"config": {"design": "adapt-noc", "apps": [{"profile": "bfs", "region": {"w": 4, "h": 4}}], ` + tc.fragment + `}, "cycles": 1000}`
		resp, err := http.Post(base+"/v1/sims", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), tc.key) {
			t.Errorf("%s: %s %s, want 400 naming the key", tc.key, resp.Status, blob)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	first, _ := submit(t, base, fastRequest(60))
	waitTerminal(t, base, first.ID, 30*time.Second)
	submit(t, base, fastRequest(60)) // cache hit

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	body := string(blob)
	for _, want := range []string{
		"adaptnoc_serve_jobs_completed_total 2", // the hit is born done
		"adaptnoc_serve_cache_hits_total 1",
		"adaptnoc_serve_cache_misses_total 1",
		"adaptnoc_serve_queue_depth 0",
		"adaptnoc_serve_job_seconds_count 1",
		`adaptnoc_serve_job_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// The jobs listing carries summaries (no result payloads) for every job.
func TestJobListing(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	a, _ := submit(t, base, fastRequest(70))
	waitTerminal(t, base, a.ID, 30*time.Second)

	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != a.ID {
		t.Fatalf("listing = %+v, want the one submitted job", infos)
	}
	if len(infos[0].Results) != 0 {
		t.Error("listing carries result payloads")
	}
}

// The disk cache makes results survive a daemon restart.
func TestServerCacheDirPersistence(t *testing.T) {
	dir := t.TempDir()
	srv := serve.New(serve.Options{CacheDir: dir})
	ts := httptest.NewServer(srv.Handler())
	info, _ := submit(t, ts.URL, fastRequest(80))
	done := waitTerminal(t, ts.URL, info.ID, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// A new daemon over the same directory answers from disk.
	srv2 := serve.New(serve.Options{CacheDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		ts2.Close()
	}()
	again, resp := submit(t, ts2.URL, fastRequest(80))
	if resp.StatusCode != http.StatusOK || again.Cache != "hit" {
		t.Fatalf("restarted daemon: status %s cache=%s, want 200 hit", resp.Status, again.Cache)
	}
	if !bytes.Equal(again.Results, done.Results) {
		t.Error("disk-cached results differ from the original run")
	}
}

// A budgeted request runs to completion and reports execution times.
func TestBudgetedRequest(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	req := serve.Request{
		Config: adaptnoc.Config{
			Design: adaptnoc.DesignBaseline,
			Apps: []adaptnoc.AppSpec{
				{Profile: "bfs", Region: adaptnoc.Region{X: 0, Y: 0, W: 4, H: 4}, InstrBudget: 2000},
			},
			Seed:        2021,
			EpochCycles: 1000,
		},
	}
	info, _ := submit(t, base, req)
	done := waitTerminal(t, base, info.ID, 60*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	res, err := adaptnoc.ParseResults(done.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 1 || res.Apps[0].ExecTime < 0 {
		t.Fatalf("budgeted app did not finish: %+v", res.Apps)
	}
}

// TestResumeAfterCancelByteIdentical is the serving keystone for
// checkpoint/restore: cancel a running job, observe that a checkpoint was
// persisted, resume it through the endpoint, and require the spliced
// result to be byte-identical to an uninterrupted run — and to land in the
// cache under the same key.
func TestResumeAfterCancelByteIdentical(t *testing.T) {
	ckptDir := t.TempDir()
	_, base := newTestServer(t, serve.Options{Workers: 1, CheckpointDir: ckptDir})

	req := fastRequest(40)
	req.Cycles = 300000 // seconds of wall clock: long enough to cancel mid-run

	// The uninterrupted reference: the same request served by a separate
	// daemon that never cancels.
	_, refBase := newTestServer(t, serve.Options{Workers: 1})
	refInfo, _ := submit(t, refBase, req)
	refDone := waitTerminal(t, refBase, refInfo.ID, 60*time.Second)
	if refDone.State != serve.StateDone {
		t.Fatalf("reference job ended %s: %s", refDone.State, refDone.Error)
	}
	want := []byte(refDone.Results)

	info, _ := submit(t, base, req)
	waitState(t, base, info.ID, serve.StateRunning, 10*time.Second)
	time.Sleep(50 * time.Millisecond) // let the run get past cycle zero
	cancelJob(t, base, info.ID)
	canceled := waitTerminal(t, base, info.ID, 10*time.Second)
	if canceled.State != serve.StateCanceled {
		t.Fatalf("job ended %s, want canceled", canceled.State)
	}
	if !canceled.Checkpoint {
		t.Fatal("canceled job reports no checkpoint")
	}
	ckpt := filepath.Join(ckptDir, canceled.Key+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	resp, err := http.Post(base+"/v1/jobs/"+info.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var resumed serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&resumed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %s", resp.Status)
	}
	if !resumed.Resumed || resumed.Key != info.Key {
		t.Fatalf("resumed job: resumed=%v key=%s, want resumed under key %s", resumed.Resumed, resumed.Key, info.Key)
	}

	done := waitTerminal(t, base, resumed.ID, 60*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("resumed job ended %s: %s", done.State, done.Error)
	}
	if !bytes.Equal(done.Results, want) {
		t.Error("resumed results differ from the uninterrupted run")
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Error("checkpoint not removed after successful resume")
	}

	// The spliced result is cache-eligible: resubmitting the original
	// request is a hit with the same bytes.
	again, resp2 := submit(t, base, req)
	if resp2.StatusCode != http.StatusOK || again.Cache != "hit" {
		t.Fatalf("resubmission after resume: %s cache=%s, want 200 hit", resp2.Status, again.Cache)
	}
	if !bytes.Equal(again.Results, want) {
		t.Error("cached resumed results differ from the uninterrupted run")
	}
}

// Resume is only meaningful for canceled jobs; anything else is a conflict,
// and unknown jobs are not found.
func TestResumeRequiresCanceledJob(t *testing.T) {
	_, base := newTestServer(t, serve.Options{})
	info, _ := submit(t, base, fastRequest(41))
	done := waitTerminal(t, base, info.ID, 30*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	resp, err := http.Post(base+"/v1/jobs/"+info.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("resume of a done job: %s, want 409", resp.Status)
	}
	resp, err = http.Post(base+"/v1/jobs/absent/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("resume of an unknown job: %s, want 404", resp.Status)
	}
}

// Without a checkpoint directory, resume still works — it reruns from
// cycle zero, which determinism makes indistinguishable in the results.
func TestResumeWithoutCheckpointDir(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1})
	info, _ := submit(t, base, slowRequest(42))
	waitState(t, base, info.ID, serve.StateRunning, 10*time.Second)
	cancelJob(t, base, info.ID)
	canceled := waitTerminal(t, base, info.ID, 10*time.Second)
	if canceled.State != serve.StateCanceled {
		t.Fatalf("job ended %s, want canceled", canceled.State)
	}
	if canceled.Checkpoint {
		t.Error("checkpoint reported with no checkpoint directory configured")
	}
	// Resume the canceled slow job and cancel it again: the endpoint
	// admits it as a fresh run.
	resp, err := http.Post(base+"/v1/jobs/"+info.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var resumed serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&resumed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !resumed.Resumed {
		t.Fatalf("resume: %s resumed=%v", resp.Status, resumed.Resumed)
	}
	waitState(t, base, resumed.ID, serve.StateRunning, 10*time.Second)
	cancelJob(t, base, resumed.ID)
	waitTerminal(t, base, resumed.ID, 10*time.Second)
}

// submitQuery posts a request with extra query parameters (?lease=,
// ?resume=1) appended to /v1/sims.
func submitQuery(t *testing.T, base string, req serve.Request, query string) (serve.JobInfo, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sims?"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info serve.JobInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(blob, &info); err != nil {
			t.Fatalf("decoding %s: %v", blob, err)
		}
	}
	return info, resp
}

// A full queue's Retry-After must be jittered — uniform over 1-5 seconds,
// not a constant — so a fleet of backed-off coordinators cannot
// synchronize into retry storms.
func TestRetryAfterJittered(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1, JitterSeed: 7})
	running, _ := submit(t, base, slowRequest(90))
	waitState(t, base, running.ID, serve.StateRunning, 10*time.Second)
	queued, _ := submit(t, base, slowRequest(91))

	seen := map[string]bool{}
	for i := 0; i < 16; i++ {
		_, resp := submit(t, base, slowRequest(92))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-capacity submission %d: %s, want 429", i, resp.Status)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil || secs < 1 || secs > 5 {
			t.Fatalf("Retry-After = %q, want an integer in [1,5]", ra)
		}
		seen[ra] = true
	}
	if len(seen) < 2 {
		t.Errorf("16 rejections all answered Retry-After %v; want jitter", seen)
	}
	cancelJob(t, base, queued.ID)
	cancelJob(t, base, running.ID)
	waitTerminal(t, base, running.ID, 10*time.Second)
}

// A lease-scoped job whose lease lapses without renewal cancels itself.
func TestLeaseExpiryCancels(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1})
	info, resp := submitQuery(t, base, slowRequest(93), "lease=150ms")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("lease submission: %s", resp.Status)
	}
	done := waitTerminal(t, base, info.ID, 30*time.Second)
	if done.State != serve.StateCanceled {
		t.Fatalf("lapsed lease ended %s, want canceled", done.State)
	}
}

// Renewing a lease keeps the job alive to completion; renewing a job that
// has no lease is a conflict, as is a malformed lease duration.
func TestLeaseRenewal(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1})
	req := fastRequest(94)
	req.Cycles = 120000 // long enough that the lease must be renewed at least once
	info, resp := submitQuery(t, base, req, "lease=1s")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("lease submission: %s", resp.Status)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getJob(t, base, info.ID)
		if st.State.Terminal() {
			if st.State != serve.StateDone {
				t.Fatalf("renewed job ended %s: %s", st.State, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		r, err := http.Post(base+"/v1/jobs/"+info.ID+"/lease", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusConflict {
			t.Fatalf("renewal: %s", r.Status)
		}
		time.Sleep(100 * time.Millisecond)
	}

	plain, _ := submit(t, base, fastRequest(95))
	waitTerminal(t, base, plain.ID, 30*time.Second)
	r, err := http.Post(base+"/v1/jobs/"+plain.ID+"/lease", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("renewal of a lease-less job: %s, want 409", r.Status)
	}
	if _, resp := submitQuery(t, base, fastRequest(96), "lease=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed lease: %s, want 400", resp.Status)
	}
}

// GET /v1/jobs/{id}/checkpoint serves a lease-scoped job's latest
// in-memory snapshot with its simulated clock, and answers 404 with a
// remediation hint when no checkpoint exists.
func TestJobCheckpointEndpoint(t *testing.T) {
	_, base := newTestServer(t, serve.Options{Workers: 1})

	// No checkpoint: 404 with a hint naming the lease mechanism.
	plain, _ := submit(t, base, fastRequest(97))
	waitTerminal(t, base, plain.ID, 30*time.Second)
	resp, err := http.Get(base + "/v1/jobs/" + plain.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint of a lease-less job: %s, want 404", resp.Status)
	}
	if !strings.Contains(string(blob), "hint") || !strings.Contains(string(blob), "lease") {
		t.Errorf("404 body lacks a hint: %s", blob)
	}

	// A leased job snapshots every slice; the endpoint serves the blob.
	leased, _ := submitQuery(t, base, slowRequest(98), "lease=120s")
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, base, leased.ID).CheckpointCycle == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leased job never reported a snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Get(base + "/v1/jobs/" + leased.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint fetch: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	cyc, err := strconv.ParseInt(resp.Header.Get("X-Checkpoint-Cycle"), 10, 64)
	if err != nil || cyc <= 0 {
		t.Errorf("X-Checkpoint-Cycle = %q, want a positive cycle", resp.Header.Get("X-Checkpoint-Cycle"))
	}
	if _, err := adaptnoc.RestoreSim(blob); err != nil {
		t.Errorf("served blob does not restore: %v", err)
	}
	cancelJob(t, base, leased.ID)
	waitTerminal(t, base, leased.ID, 10*time.Second)
}

// The handoff path end to end on one daemon: snapshot a leased job, kill
// it, deposit the blob under its key, and resume by key — the spliced
// result must be byte-identical to an uninterrupted run.
func TestCheckpointHandoffByteIdentical(t *testing.T) {
	req := fastRequest(99)
	req.Cycles = 300000

	_, refBase := newTestServer(t, serve.Options{Workers: 1})
	refInfo, _ := submit(t, refBase, req)
	refDone := waitTerminal(t, refBase, refInfo.ID, 60*time.Second)
	if refDone.State != serve.StateDone {
		t.Fatalf("reference job ended %s: %s", refDone.State, refDone.Error)
	}

	_, base := newTestServer(t, serve.Options{Workers: 1})
	leased, _ := submitQuery(t, base, req, "lease=120s")
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, base, leased.ID).CheckpointCycle == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leased job never reported a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/jobs/" + leased.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint fetch: %s", resp.Status)
	}
	cancelJob(t, base, leased.ID)
	waitTerminal(t, base, leased.ID, 10*time.Second)

	put, err := http.NewRequest(http.MethodPut, base+"/v1/checkpoints/"+leased.Key, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint deposit: %s", presp.Status)
	}

	resumed, rresp := submitQuery(t, base, req, "resume=1")
	if rresp.StatusCode != http.StatusAccepted || !resumed.Resumed {
		t.Fatalf("resume submission: %s resumed=%v", rresp.Status, resumed.Resumed)
	}
	done := waitTerminal(t, base, resumed.ID, 60*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("resumed job ended %s: %s", done.State, done.Error)
	}
	if !bytes.Equal(done.Results, refDone.Results) {
		t.Error("handed-off resume differs from the uninterrupted run")
	}

	// A corrupt deposit is refused at the door.
	bad, _ := http.NewRequest(http.MethodPut, base+"/v1/checkpoints/"+leased.Key, strings.NewReader("not a checkpoint"))
	bresp, err := http.DefaultClient.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt deposit: %s, want 400", bresp.Status)
	}
}

// The checkpoint endpoint's delta negotiation: a caller naming a chain
// position it already holds (?base=<hex body hash>) receives only the
// delta frames extending it, and applying them locally reproduces the
// byte-identical full blob. Determinism lets the test mint a valid base
// token without racing the worker: a local run of the same config to a
// slice boundary produces the exact bytes (hence hash) the server's chain
// holds at that cycle.
func TestCheckpointDeltaNegotiation(t *testing.T) {
	req := fastRequest(41)
	req.Cycles = 8000 // 8 slices: full base at 1000, seven frames after

	_, base := newTestServer(t, serve.Options{Workers: 1})
	leased, _ := submitQuery(t, base, req, "lease=120s")
	done := waitTerminal(t, base, leased.ID, 60*time.Second)
	if done.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	fetch := func(query string) ([]byte, string, string, string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + leased.ID + "/checkpoint" + query)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint fetch %q: %s", query, resp.Status)
		}
		return blob, resp.Header.Get("X-Checkpoint-Format"),
			resp.Header.Get("X-Checkpoint-Body-Hash"), resp.Header.Get("X-Checkpoint-Cycle")
	}

	// Baseline: the full blob, its hash, and its clock.
	full, format, tipHex, cycle := fetch("")
	if format != "full" || tipHex == "" || cycle != "8000" {
		t.Fatalf("full fetch: format=%q hash=%q cycle=%q", format, tipHex, cycle)
	}
	if _, err := adaptnoc.RestoreSim(full); err != nil {
		t.Fatalf("full blob does not restore: %v", err)
	}

	// Mint a mid-chain base token by running the same config locally to a
	// slice boundary — byte-determinism makes the hashes coincide.
	simu, err := adaptnoc.NewSim(req.Canonical().Config)
	if err != nil {
		t.Fatal(err)
	}
	simu.Run(3000)
	local, err := simu.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	body, err := snap.OpenBody(local)
	if err != nil {
		t.Fatal(err)
	}
	localHash := snap.BodyHash(body)

	blob, format, gotTip, cycle := fetch("?base=" + hex.EncodeToString(localHash[:]))
	if format != "delta-chain" {
		t.Fatalf("mid-chain base answered format %q, want delta-chain", format)
	}
	if gotTip != tipHex || cycle != "8000" {
		t.Errorf("delta fetch: hash=%q cycle=%q, want %q/8000", gotTip, cycle, tipHex)
	}
	frames, err := snap.ParseFrameLog(blob)
	if err != nil {
		t.Fatalf("delta-chain body does not parse: %v", err)
	}
	if len(frames) != 5 {
		t.Errorf("suffix after cycle 3000 carries %d frames, want 5", len(frames))
	}
	// Under saturated traffic each frame still re-encodes the churning
	// packet state, so the honest size claim here is per-frame (the
	// steady-state >=5x shrink is benched by make bench-checkpoint); what
	// the negotiation always saves is shipping the suffix instead of one
	// full blob per poll.
	if len(blob) >= len(frames)*len(full) {
		t.Errorf("delta suffix (%d bytes over %d frames) not smaller than refetching full blobs (%d bytes each)",
			len(blob), len(frames), len(full))
	}
	applied, err := snap.ApplyChain(local, frames...)
	if err != nil {
		t.Fatalf("applying fetched chain: %v", err)
	}
	if !bytes.Equal(applied, full) {
		t.Error("local base + fetched deltas differs from the full blob")
	}

	// A caller already at the tip gets an empty chain.
	blob, format, _, _ = fetch("?base=" + tipHex)
	if format != "delta-chain" || len(blob) != 0 {
		t.Errorf("tip base: format=%q body=%d bytes, want delta-chain/empty", format, len(blob))
	}

	// An unknown or garbage base degrades to the full blob, never an error.
	blob, format, _, _ = fetch("?base=" + strings.Repeat("ab", 32))
	if format != "full" || !bytes.Equal(blob, full) {
		t.Errorf("unknown base: format=%q, want the full blob again", format)
	}
	blob, format, _, _ = fetch("?base=zzzz")
	if format != "full" || !bytes.Equal(blob, full) {
		t.Errorf("garbage base: format=%q, want the full blob again", format)
	}
}

// The checkpoint directory honors its byte budget: checkpoints beyond it
// are evicted least-recently-used at runtime, and a restart sweeps
// pre-existing files down to the budget.
func TestCheckpointDirBudget(t *testing.T) {
	dir := t.TempDir()
	req := slowRequest(42)

	// One canceled job to learn the checkpoint size and prove persistence.
	_, base := newTestServer(t, serve.Options{Workers: 1, CheckpointDir: dir})
	info, _ := submit(t, base, req)
	deadline := time.Now().Add(30 * time.Second)
	for len(getJob(t, base, info.ID).Results) == 0 && getJob(t, base, info.ID).State == serve.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let it run a little before canceling
	cancelJob(t, base, info.ID)
	canceled := waitTerminal(t, base, info.ID, 30*time.Second)
	if canceled.State != serve.StateCanceled || !canceled.Checkpoint {
		t.Fatalf("setup job: state=%s checkpoint=%v", canceled.State, canceled.Checkpoint)
	}
	fi, err := os.Stat(filepath.Join(dir, info.Key+".ckpt"))
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// Plant extra fake checkpoints, then restart with a budget that only
	// fits one: the startup sweep must evict the oldest down to the budget.
	old := filepath.Join(dir, strings.Repeat("0", 8)+".ckpt")
	os.WriteFile(old, make([]byte, fi.Size()), 0o644)
	past := time.Now().Add(-time.Hour)
	os.Chtimes(old, past, past)
	os.WriteFile(filepath.Join(dir, "stale.ckpt.tmp"), []byte("torn"), 0o644)

	newTestServer(t, serve.Options{Workers: 1, CheckpointDir: dir, CheckpointBytes: fi.Size() + 1})
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("startup sweep kept the oldest checkpoint past the budget")
	}
	if _, err := os.Stat(filepath.Join(dir, "stale.ckpt.tmp")); !os.IsNotExist(err) {
		t.Error("startup sweep kept a torn temp file")
	}
	if _, err := os.Stat(filepath.Join(dir, info.Key+".ckpt")); err != nil {
		t.Errorf("startup sweep evicted the newest checkpoint: %v", err)
	}
}
