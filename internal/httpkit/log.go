package httpkit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Log is an append-only event history that any number of readers follow at
// their own pace. A reader keeps a cursor — the number of events it has
// seen — and Wait hands it everything past it. The history is the only
// buffer: Append never blocks and never drops, a slow reader just falls
// behind, and a late one replays from zero. Waiting readers sleep on one
// broadcast channel that every Append and Close closes and replaces.
//
// The zero value is an open, empty log.
type Log[E any] struct {
	mu     sync.Mutex
	events []E
	closed bool
	wake   chan struct{} // nil until a reader waits; closed to wake them all
}

// Append records ev and wakes every waiting reader. Appending to a closed
// log does nothing.
func (l *Log[E]) Append(ev E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, ev)
	l.wakeLocked()
}

// Close marks the history complete and wakes every waiting reader. It is
// idempotent.
func (l *Log[E]) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.wakeLocked()
}

func (l *Log[E]) wakeLocked() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// Wait returns the events after the first cursor ones and whether the log
// is closed — in which case they are the last. While there are none and the
// log is open it blocks, returning ctx's error if ctx ends first. The
// returned slice shares the log's storage and must not be modified.
func (l *Log[E]) Wait(ctx context.Context, cursor int) ([]E, bool, error) {
	for {
		l.mu.Lock()
		if n := len(l.events); cursor < n || l.closed {
			evs, closed := l.events[cursor:n:n], l.closed
			l.mu.Unlock()
			return evs, closed, nil
		}
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// ServeSSE streams log as Server-Sent Events: one frame named name per
// event from the start of the history, then, once the log is closed, a
// final "done" frame carrying final(). Every frame's data is one line of
// JSON. A client that disconnects ends the stream early.
func ServeSSE[E any](w http.ResponseWriter, r *http.Request, log *Log[E], name string, final func() any) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		Error(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // the client sees the stream open before the first event
	for cursor := 0; ; {
		evs, closed, err := log.Wait(r.Context(), cursor)
		if err != nil {
			return
		}
		for _, ev := range evs {
			writeFrame(w, name, ev)
		}
		flusher.Flush()
		if closed {
			break
		}
		cursor += len(evs)
	}
	writeFrame(w, "done", final())
}

func writeFrame(w io.Writer, name string, v any) {
	blob, _ := json.Marshal(v) // event records are plain structs; Marshal cannot fail
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, blob)
}
