package httpkit_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adaptnoc/internal/httpkit"
	"adaptnoc/internal/serve"
)

// drain follows log from cursor to its close, returning everything read.
func drain(t *testing.T, log *httpkit.Log[int], cursor int) []int {
	t.Helper()
	var got []int
	for {
		evs, closed, err := log.Wait(context.Background(), cursor)
		if err != nil {
			t.Errorf("Wait: %v", err)
			return got
		}
		got = append(got, evs...)
		cursor += len(evs)
		if closed {
			return got
		}
	}
}

// A reader that stops reading while a thousand events are appended loses
// none of them: the history is the buffer, so once it drains it gets every
// event in order and then the close.
func TestLogSlowReaderLosesNothing(t *testing.T) {
	var log httpkit.Log[int]
	const n = 1000
	first := make(chan []int)
	resume := make(chan struct{})
	result := make(chan []int)
	go func() {
		evs, _, _ := log.Wait(context.Background(), 0) // subscribed and waiting
		first <- evs
		<-resume // then reads nothing for a while
		result <- drain(t, &log, len(evs))
	}()
	log.Append(0)
	got := <-first
	for i := 1; i < n; i++ {
		log.Append(i)
	}
	log.Close()
	close(resume)
	got = append(got, <-result...)
	if len(got) != n {
		t.Fatalf("slow reader got %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d = %d: out of order", i, v)
		}
	}
}

// A reader that joins after Close gets the whole history at once and is
// told it is the end.
func TestLogLateReaderReplaysHistory(t *testing.T) {
	var log httpkit.Log[int]
	for i := 0; i < 5; i++ {
		log.Append(i)
	}
	log.Close()
	log.Append(99) // ignored: the log is closed
	evs, closed, err := log.Wait(context.Background(), 0)
	if err != nil || !closed || len(evs) != 5 || evs[4] != 4 {
		t.Fatalf("late Wait = %v closed=%v err=%v, want 0..4 closed", evs, closed, err)
	}
	if evs, closed, _ := log.Wait(context.Background(), 5); len(evs) != 0 || !closed {
		t.Fatalf("Wait at the end = %v closed=%v, want nothing, closed", evs, closed)
	}
}

// A waiting reader whose context ends returns its error and leaves nothing
// behind: Wait starts no goroutine, and an SSE handler over an open log
// returns once its client goes away.
func TestLogWaitCanceled(t *testing.T) {
	var log httpkit.Log[int]
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() {
		_, _, err := log.Wait(ctx, 0)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Wait returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Wait did not return")
	}

	log.Append(1)
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpkit.ServeSSE(w, r, &log, "item", func() any { return nil })
		close(returned)
	}))
	defer ts.Close()
	rctx, rcancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(rctx, http.MethodGet, ts.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len("event: item\ndata: 1\n\n"))
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("reading the first frame: %v", err)
	}
	rcancel()
	resp.Body.Close()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE handler still running after its client went away")
	}
}

// Concurrent appenders and readers: every reader sees every event, each
// appender's events in the order it appended them.
func TestLogConcurrent(t *testing.T) {
	var log httpkit.Log[int]
	const appenders, per, readers = 4, 250, 4
	var reads sync.WaitGroup
	results := make([][]int, readers)
	for r := range results {
		reads.Add(1)
		go func() {
			defer reads.Done()
			results[r] = drain(t, &log, 0)
		}()
	}
	var writes sync.WaitGroup
	for a := 0; a < appenders; a++ {
		writes.Add(1)
		go func() {
			defer writes.Done()
			for i := 0; i < per; i++ {
				log.Append(a*per + i)
			}
		}()
	}
	writes.Wait()
	log.Close()
	reads.Wait()
	for r, got := range results {
		if len(got) != appenders*per {
			t.Fatalf("reader %d got %d events, want %d", r, len(got), appenders*per)
		}
		next := make([]int, appenders)
		for _, v := range got {
			a := v / per
			if v%per != next[a] {
				t.Fatalf("reader %d: appender %d's event %d arrived out of order", r, a, v%per)
			}
			next[a]++
		}
	}
}

// The SSE bytes on the wire are exactly the frames serve's job stream has
// always sent (TestSSEEventStream's "epoch" frames and final "done"), for a
// client that follows the job live.
func TestServeSSEFrames(t *testing.T) {
	var log httpkit.Log[serve.Event]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpkit.ServeSSE(w, r, &log, "epoch", func() any {
			return serve.JobInfo{ID: "job-1", State: serve.StateDone, Key: "k", Cache: "miss", Seq: 1}
		})
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct, cc := resp.Header.Get("Content-Type"), resp.Header.Get("Cache-Control"); ct != "text/event-stream" || cc != "no-cache" {
		t.Errorf("headers: Content-Type %q Cache-Control %q", ct, cc)
	}
	for i := int64(1); i <= 3; i++ {
		log.Append(serve.Event{Cycle: 1000 * i, RouterSkipRate: 0.5, ChannelSkipRate: 0.25})
	}
	log.Close()
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const want = "event: epoch\ndata: {\"cycle\":1000,\"routerSkipRate\":0.5,\"channelSkipRate\":0.25}\n\n" +
		"event: epoch\ndata: {\"cycle\":2000,\"routerSkipRate\":0.5,\"channelSkipRate\":0.25}\n\n" +
		"event: epoch\ndata: {\"cycle\":3000,\"routerSkipRate\":0.5,\"channelSkipRate\":0.25}\n\n" +
		"event: done\ndata: {\"id\":\"job-1\",\"state\":\"done\",\"key\":\"k\",\"cache\":\"miss\",\"seq\":1}\n\n"
	if string(stream) != want {
		t.Errorf("SSE stream:\n%q\nwant\n%q", stream, want)
	}

	// A client arriving after the end replays the same bytes at once.
	rec := httptest.NewRecorder()
	httpkit.ServeSSE(rec, httptest.NewRequest(http.MethodGet, "/", nil), &log, "epoch", func() any {
		return serve.JobInfo{ID: "job-1", State: serve.StateDone, Key: "k", Cache: "miss", Seq: 1}
	})
	if rec.Body.String() != want {
		t.Errorf("late SSE stream:\n%q\nwant\n%q", rec.Body.String(), want)
	}
}
