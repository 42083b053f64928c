package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptnoc"
	"adaptnoc/internal/httpkit"
	"adaptnoc/internal/serve"
)

func TestManifestParse(t *testing.T) {
	m, err := ParseManifest([]byte(`{"figs": ["19", "area"], "quick": true, "seed": 7}`))
	if err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	if !m.Quick || m.Seed != 7 || len(m.Figs) != 2 {
		t.Fatalf("manifest decoded wrong: %+v", m)
	}
	o := m.Options()
	if o.Seed != 7 {
		t.Fatalf("seed override not applied: %d", o.Seed)
	}
	if o.Cycles != 60000 {
		t.Fatalf("quick options not selected: cycles=%d", o.Cycles)
	}

	bad := []string{
		`{"figs": ["bogus"]}`,                 // unknown figure
		`{"figs": ["19"], "typo": 1}`,         // unknown field
		`{"faultCounts": [-1]}`,               // negative count
		`{"figs": ["19"]} {"figs": ["area"]}`, // trailing data
		`{"figs": ["19"]`,                     // malformed
	}
	for _, doc := range bad {
		if _, err := ParseManifest([]byte(doc)); err == nil {
			t.Errorf("manifest %s accepted, want error", doc)
		}
	}
}

func TestBackoffEnvelope(t *testing.T) {
	j := backoffJitter{httpkit.NewJitter(42)}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 12; attempt++ {
		// Envelope at this attempt: base doubled attempt-1 times, capped.
		env := backoffBase
		for i := 1; i < attempt && env < backoffCap; i++ {
			env *= 2
		}
		if env > backoffCap {
			env = backoffCap
		}
		d := j.backoff(attempt)
		if d < env/2 || d >= env {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, env/2, env)
		}
		if d > backoffCap {
			t.Fatalf("attempt %d: backoff %v above cap", attempt, d)
		}
		_ = prev
		prev = d
	}

	// Same seed, same schedule: the retry cadence is reproducible.
	a, b := backoffJitter{httpkit.NewJitter(7)}, backoffJitter{httpkit.NewJitter(7)}
	for i := 1; i <= 8; i++ {
		if x, y := a.backoff(i), b.backoff(i); x != y {
			t.Fatalf("attempt %d: seeded backoff diverged: %v vs %v", i, x, y)
		}
	}
}

func TestItemLifecycle(t *testing.T) {
	it := newItem("k", serve.Request{})
	if !it.tryDrive() {
		t.Fatal("first tryDrive refused")
	}
	if it.tryDrive() {
		t.Fatal("second tryDrive succeeded while driving")
	}
	it.setLeased("w-1")
	it.releaseDrive()
	if state, _, _ := it.outcome(); state != ItemPending {
		t.Fatalf("releaseDrive left state %s, want pending", state)
	}
	if !it.tryDrive() {
		t.Fatal("tryDrive refused after release")
	}

	it.setCheckpoint([]byte("new"), 100, "aa")
	it.setCheckpoint([]byte("stale"), 50, "bb") // older cycle must not replace
	if blob, cycle := it.checkpointData(); string(blob) != "new" || cycle != 100 {
		t.Fatalf("stale checkpoint replaced fresh one: %q@%d", blob, cycle)
	}

	if !it.complete([]byte("r1")) {
		t.Fatal("complete refused on live item")
	}
	if it.complete([]byte("r2")) || it.fail("late") {
		t.Fatal("terminal item accepted a second outcome")
	}
	state, result, _ := it.outcome()
	if state != ItemDone || string(result) != "r1" {
		t.Fatalf("outcome = %s/%q, want done/r1", state, result)
	}
	if blob, _ := it.checkpointData(); blob != nil {
		t.Fatal("completed item still holds a checkpoint blob")
	}
	select {
	case <-it.done:
	default:
		t.Fatal("done channel not closed")
	}
	if it.tryDrive() {
		t.Fatal("tryDrive succeeded on a terminal item")
	}
}

// smokeConfig is a cheap non-budgeted single-app workload.
func smokeConfig() adaptnoc.Config {
	reg := adaptnoc.Region{W: 4, H: 8}
	return adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps:   []adaptnoc.AppSpec{{Profile: "bfs", Region: reg, MCTiles: adaptnoc.BlockMCs(reg)}},
		Seed:   2021,
	}
}

// TestLocalFallback proves a bare coordinator (no workers registered)
// still evaluates, and that the result is exactly what a direct simulation
// of the canonical config produces.
func TestLocalFallback(t *testing.T) {
	c := New(Options{Poll: 10 * time.Millisecond, JitterSeed: 1})
	defer c.Close()

	const cycles = 4000
	got, err := c.Evaluate(context.Background(), smokeConfig(), cycles)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if n := c.localRuns.Load(); n != 1 {
		t.Fatalf("localRuns = %d, want 1", n)
	}

	s, err := adaptnoc.NewSim(smokeConfig().Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
	want := s.Results()
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("fleet-evaluated results differ from direct simulation")
	}

	// The same request again must be answered from the completed item.
	if _, err := c.Evaluate(context.Background(), smokeConfig(), cycles); err != nil {
		t.Fatalf("second Evaluate: %v", err)
	}
	if n := c.localRuns.Load(); n != 1 {
		t.Fatalf("repeat evaluation re-ran the simulation (localRuns = %d)", n)
	}
}

func TestWorkerRegistryHTTP(t *testing.T) {
	c := New(Options{JitterSeed: 1})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	register := func(url string) (WorkerInfo, int) {
		blob, _ := json.Marshal(map[string]string{"url": url})
		resp, err := http.Post(ts.URL+"/v1/workers", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info WorkerInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return info, resp.StatusCode
	}

	info, code := register("http://127.0.0.1:7777")
	if code != http.StatusCreated || info.ID != "w-1" {
		t.Fatalf("register: code=%d info=%+v", code, info)
	}
	// Same URL re-registers under the same identity, 200 not 201.
	again, code := register("http://127.0.0.1:7777/")
	if code != http.StatusOK || again.ID != "w-1" {
		t.Fatalf("re-register: code=%d info=%+v", code, again)
	}
	if _, code := register("http://127.0.0.1:7778"); code != http.StatusCreated {
		t.Fatalf("second worker: code=%d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/workers/w-1/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: %s", resp.Status)
	}
	resp, err = http.Post(ts.URL+"/v1/workers/w-99/heartbeat", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: %s, want 404", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var list []WorkerInfo
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != "w-1" || list[1].ID != "w-2" {
		t.Fatalf("worker list = %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/w-2", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", resp.Status)
	}
	if wk := c.lookupWorker("w-2"); wk != nil {
		t.Fatal("deleted worker still registered")
	}
}

// TestEnrollRegistersAndRecovers runs the worker-side enrollment loop
// against a live coordinator: it registers, heartbeats, and re-registers
// after the coordinator forgets it.
func TestEnrollRegistersAndRecovers(t *testing.T) {
	c := New(Options{JitterSeed: 1})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Enroll(ctx, ts.URL, "http://127.0.0.1:7777", 20*time.Millisecond)

	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	registered := func() bool { return c.lookupWorker("w-1") != nil }
	waitFor("enrollment", registered)

	// Forget the worker; the heartbeat's 404 must trigger re-registration
	// (as w-2 — the URL is the identity anchor only while registered).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/w-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor("re-registration", func() bool { return c.lookupWorker("w-2") != nil })
}

// TestMetricsExposition runs one evaluation and parses the whole /metrics
// document: every series must carry the adaptnoc_fleet_ prefix, gauges and
// counters must parse, and the item-latency histogram must be cumulative
// with a +Inf bucket equal to its count — the obs.WritePromHistogram
// conventions the serve daemon established.
func TestMetricsExposition(t *testing.T) {
	c := New(Options{Poll: 10 * time.Millisecond, JitterSeed: 1})
	defer c.Close()
	if _, err := c.Evaluate(context.Background(), smokeConfig(), 4000); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	values := map[string]float64{}
	var bucketCum []float64
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := fields[0]
		if !strings.HasPrefix(name, "adaptnoc_fleet_") {
			t.Fatalf("series %q outside the adaptnoc_fleet_ namespace", name)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[name] = v
		if strings.HasPrefix(name, "adaptnoc_fleet_item_seconds_bucket{") {
			if len(bucketCum) > 0 && v < bucketCum[len(bucketCum)-1] {
				t.Fatalf("histogram buckets not cumulative at %q", line)
			}
			bucketCum = append(bucketCum, v)
		}
	}

	for name, want := range map[string]float64{
		"adaptnoc_fleet_items_done":         1,
		"adaptnoc_fleet_items_pending":      0,
		"adaptnoc_fleet_items_leased":       0,
		"adaptnoc_fleet_local_runs_total":   1,
		"adaptnoc_fleet_dispatches_total":   0,
		"adaptnoc_fleet_item_seconds_count": 1,
	} {
		if got, ok := values[name]; !ok {
			t.Errorf("metric %s missing", name)
		} else if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	inf, ok := values[`adaptnoc_fleet_item_seconds_bucket{le="+Inf"}`]
	if !ok {
		t.Fatal("histogram missing the +Inf bucket")
	}
	if inf != values["adaptnoc_fleet_item_seconds_count"] {
		t.Fatalf("+Inf bucket %g != count %g", inf, values["adaptnoc_fleet_item_seconds_count"])
	}
	if got := values["adaptnoc_fleet_workers_registered"]; got != 0 {
		t.Fatalf("workers_registered = %g, want 0", got)
	}
}

// TestSuiteHTTPSurface runs an instant suite (closed-form tables only)
// through the full HTTP surface: submit, list, poll, SSE, output.
func TestSuiteHTTPSurface(t *testing.T) {
	c := New(Options{JitterSeed: 1})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Reject garbage first.
	resp, err := http.Post(ts.URL+"/v1/suites", "application/json", strings.NewReader(`{"figs":["bogus"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad manifest: %s, want 400", resp.Status)
	}

	resp, err = http.Post(ts.URL+"/v1/suites", "application/json", strings.NewReader(`{"figs":["area","wiring"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var info SuiteInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID != "suite-1" {
		t.Fatalf("submit: code=%d info=%+v", resp.StatusCode, info)
	}

	// SSE must replay and terminate with a done event once the suite ends.
	resp, err = http.Get(ts.URL + "/v1/suites/suite-1/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), "event: done") {
		t.Fatalf("SSE stream missing done event:\n%s", stream)
	}

	resp, err = http.Get(ts.URL + "/v1/suites/suite-1/output")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("output: %s: %s", resp.Status, out)
	}
	for _, title := range []string{"area", "wiring"} {
		if !strings.Contains(string(out), title) {
			t.Errorf("output missing the %s table:\n%s", title, out)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/suites")
	if err != nil {
		t.Fatal(err)
	}
	var list []SuiteInfo
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].State != SuiteDone || list[0].Tables != 2 {
		t.Fatalf("suite list = %+v", list)
	}

	if resp, err = http.Get(ts.URL + "/v1/suites/suite-9/output"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown suite output: %s, want 404", resp.Status)
	}
}

// Evaluate runs one canonical simulation request through the fleet and
// returns its Results: runSuite's exp.Options.Eval without the suite's
// event stream. limit is as in exp.Eval.
func (c *Coordinator) Evaluate(ctx context.Context, cfg adaptnoc.Config, limit adaptnoc.Cycle) (adaptnoc.Results, error) {
	req := requestTo(cfg, limit)
	key, err := serve.RequestKey(req)
	if err != nil {
		return adaptnoc.Results{}, err
	}
	return c.evalItem(ctx, key, req)
}
