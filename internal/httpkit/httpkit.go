// Package httpkit is the HTTP plumbing the serve daemon and the fleet
// coordinator share, written once: JSON replies and errors, capped body
// reads, an append-only event Log with the Server-Sent Events writer over
// it, and the seeded Jitter source both daemons spread retries with.
package httpkit

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"adaptnoc/internal/sim"
)

// WriteJSON replies with v as indented JSON under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Error replies {"error": msg} under the given status.
func Error(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// ReadBody reads the request body, refusing more than limit bytes. On
// failure it has already answered 400 ("reading <what>: …") and reports
// false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		Error(w, http.StatusBadRequest, fmt.Sprintf("reading %s: %v", what, err))
		return nil, false
	}
	return body, true
}

// Jitter is a goroutine-safe seeded random source for spreading retries
// (serve's Retry-After, the fleet's requeue backoff), so that backed-off
// clients do not return in lockstep. A seeded source draws a reproducible
// sequence; seed 0 seeds from the clock.
type Jitter struct {
	mu  sync.Mutex
	rng *sim.RNG
}

// NewJitter returns a source seeded with seed (0 = the clock).
func NewJitter(seed uint64) *Jitter {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return &Jitter{rng: sim.NewRNG(seed)}
}

// Below draws from [0, n); n must be positive.
func (j *Jitter) Below(n uint64) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Uint64() % n
}
