package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adaptnoc/internal/exp"
	"adaptnoc/internal/serve"
)

// renderSuite runs the manifest's suite in-process and renders it the way
// the coordinator does — the byte-identity reference.
func renderSuite(m Manifest) ([]byte, error) {
	tables, err := exp.RunSuite(m.Options(), m.Params())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, t := range tables {
		t.Print(&buf)
	}
	return buf.Bytes(), nil
}

// TestMultiNodeKillByteIdentity is the fleet's acceptance test: a suite
// scheduled across three serve workers — one of them killed abruptly while
// mid-job with a shadowed checkpoint — must still render byte-identical to
// a local run of the same manifest, with the interrupted work resumed on a
// surviving node from the handed-off checkpoint blob instead of cycle
// zero.
func TestMultiNodeKillByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node e2e in -short mode")
	}
	manifest := Manifest{Figs: []string{"17"}, Quick: true}

	ref, err := renderSuite(manifest)
	if err != nil {
		t.Fatalf("local reference run: %v", err)
	}

	type node struct {
		srv *serve.Server
		ts  *httptest.Server
	}
	nodes := make([]*node, 3)
	for i := range nodes {
		srv := serve.New(serve.Options{JitterSeed: uint64(i + 1)})
		nodes[i] = &node{srv: srv, ts: httptest.NewServer(srv.Handler())}
	}
	// The victim (nodes[0]) is torn down mid-test; survivors close here.
	defer nodes[1].ts.Close()
	defer nodes[2].ts.Close()

	c := New(Options{
		Lease:        time.Second,
		Poll:         20 * time.Millisecond,
		HeartbeatTTL: time.Second,
		StealAfter:   -1, // exercised elsewhere; keep the kill the only disturbance
		MaxAttempts:  10,
		JitterSeed:   3,
		Logf:         t.Logf,
	})
	defer c.Close()
	victim, _ := c.AddWorker(nodes[0].ts.URL)
	c.AddWorker(nodes[1].ts.URL)
	c.AddWorker(nodes[2].ts.URL)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	blob, _ := json.Marshal(manifest)
	resp, err := http.Post(cts.URL+"/v1/suites", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var suite SuiteInfo
	json.NewDecoder(resp.Body).Decode(&suite)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}

	// Wait until the coordinator has shadowed a checkpoint for an item
	// leased to the victim — killing it then forces that work onto a
	// replacement node, which must receive the blob and resume mid-run
	// rather than restart from cycle zero. Fig. 17's jobs run for several
	// epoch slices, so an item seen snapshotting has seconds of work left.
	victimBusy := func() bool {
		c.mu.Lock()
		items := make([]*item, 0, len(c.items))
		for _, it := range c.items {
			items = append(items, it)
		}
		c.mu.Unlock()
		for _, it := range items {
			state, worker, _, _, _ := it.snapshot()
			if _, cycle := it.checkpointData(); state == ItemLeased && worker == victim.ID && cycle > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(2 * time.Minute)
	for !victimBusy() {
		if time.Now().After(deadline) {
			t.Fatal("victim never got a snapshotting job; cannot exercise the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	nodes[0].ts.CloseClientConnections()
	nodes[0].ts.Close() // abrupt death: no drain, no goodbye

	for suite.State == SuiteRunning {
		if time.Now().After(deadline.Add(4 * time.Minute)) {
			t.Fatalf("suite stuck after the kill (%d/%d items)", suite.Done, suite.Started)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(cts.URL + "/v1/suites/" + suite.ID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &suite); err != nil {
			t.Fatal(err)
		}
	}
	if suite.State != SuiteDone {
		t.Fatalf("suite ended %s: %s", suite.State, suite.Error)
	}

	resp, err = http.Get(cts.URL + "/v1/suites/" + suite.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("output: %s: %s", resp.Status, out)
	}
	if !bytes.Equal(out, ref) {
		t.Fatalf("fleet output differs from local run after worker kill:\n--- fleet (%d bytes)\n%s\n--- local (%d bytes)\n%s",
			len(out), out, len(ref), ref)
	}

	// The kill must have been felt: at least one lease was lost and
	// requeued, and at least one checkpoint blob was handed to a
	// replacement worker.
	if n := c.requeues.Load(); n == 0 {
		t.Error("no requeues recorded — the kill was not exercised")
	}
	if n := c.handoffs.Load(); n == 0 {
		t.Error("no checkpoint handoffs recorded — the resume path was not exercised")
	}
	// Repeated shadow polls of the same running job must have refreshed at
	// least once via the ?base= delta path instead of full re-fetches.
	if n := c.deltaShadows.Load(); n == 0 {
		t.Error("no delta shadow refreshes recorded — every poll re-fetched the full blob")
	}
	if n := c.localRuns.Load(); n != 0 {
		t.Errorf("%d evaluations fell back to the coordinator, want 0", n)
	}

	// Completed items are the cluster's memo: resubmitting the suite must
	// render the same bytes without a single new dispatch.
	dispatches := c.dispatches.Load()
	if dispatches == 0 {
		t.Fatal("suite completed without dispatching to workers")
	}
	resp, err = http.Post(cts.URL+"/v1/suites", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var again SuiteInfo
	json.NewDecoder(resp.Body).Decode(&again)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s", resp.Status)
	}
	resp, err = http.Get(cts.URL + "/v1/suites/" + again.ID + "/events") // returns once the suite ends
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(cts.URL + "/v1/suites/" + again.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(out, ref) {
		t.Fatalf("resubmitted suite: %s, output identical to the local run: %v", resp.Status, bytes.Equal(out, ref))
	}
	if n := c.dispatches.Load() - dispatches; n != 0 {
		t.Errorf("resubmission dispatched %d new jobs, want 0", n)
	}
}

// TestStealDuplicatesOntoIdleWorker pins the work-stealing path: with one
// slow-loaded worker and one idle worker, a job outliving StealAfter is
// duplicated onto the idle node and the first finisher completes the item.
func TestStealDuplicatesOntoIdleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("steal e2e in -short mode")
	}
	nodes := make([]*httptest.Server, 2)
	for i := range nodes {
		srv := serve.New(serve.Options{JitterSeed: uint64(i + 1)})
		nodes[i] = httptest.NewServer(srv.Handler())
		defer nodes[i].Close()
	}
	c := New(Options{
		Lease:        time.Second,
		Poll:         20 * time.Millisecond,
		HeartbeatTTL: time.Second,
		StealAfter:   200 * time.Millisecond, // far below the job's runtime
		JitterSeed:   5,
		Logf:         t.Logf,
	})
	defer c.Close()
	// Only the first worker is registered at dispatch time; the second
	// appears once the job is already running, so it is idle when the
	// steal timer fires.
	c.AddWorker(nodes[0].URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Evaluate(ctx, smokeConfig(), 120000)
		done <- err
	}()

	time.Sleep(100 * time.Millisecond)
	c.AddWorker(nodes[1].URL)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("evaluation did not finish")
	}
	if n := c.steals.Load(); n == 0 {
		t.Error("no steal recorded despite an idle worker and a slow job")
	}
}
