package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"adaptnoc"
)

// Request is the body of POST /v1/sims: a simulation configuration plus the
// run window.
type Request struct {
	Config adaptnoc.Config `json:"config"`

	// Cycles is the fixed window for latency-style runs (apps without
	// instruction budgets). Defaults to 500000 — ten control epochs at the
	// paper's epoch length. Ignored when any app has a budget.
	Cycles adaptnoc.Cycle `json:"cycles,omitempty"`

	// MaxCycles caps execution-time runs (apps with instruction budgets).
	// Defaults to 50M cycles. Ignored when no app has a budget.
	MaxCycles adaptnoc.Cycle `json:"maxCycles,omitempty"`
}

// Defaults for the run window (see Request field docs).
const (
	DefaultCycles    adaptnoc.Cycle = 500000
	DefaultMaxCycles adaptnoc.Cycle = 50000000
)

// Canonical resolves the request into the form the worker actually
// executes: the config is canonicalized (see adaptnoc.Config.Canonical)
// and exactly one of Cycles/MaxCycles survives, defaulted — finite
// requests (adaptnoc.Config.Finite) keep MaxCycles, fixed-window requests
// keep Cycles. Two requests name the same computation iff their canonical
// forms are equal, which is what RequestKey hashes.
func (r Request) Canonical() Request {
	req := r
	req.Config = r.Config.Canonical()
	if req.Config.Finite() {
		req.Cycles = 0
		if req.MaxCycles == 0 {
			req.MaxCycles = DefaultMaxCycles
		}
	} else {
		req.MaxCycles = 0
		if req.Cycles == 0 {
			req.Cycles = DefaultCycles
		}
	}
	return req
}

// Limit is the cycle a canonical request runs to (adaptnoc.Sim.RunTo):
// the field Canonical kept.
func (r Request) Limit() adaptnoc.Cycle {
	if r.Config.Finite() {
		return r.MaxCycles
	}
	return r.Cycles
}

// Validate checks the request, naming the offending field like
// adaptnoc.Config.Validate does.
func (r Request) Validate() error {
	if r.Cycles < 0 {
		return &adaptnoc.FieldError{Field: "cycles", Msg: fmt.Sprintf("negative window %d", r.Cycles)}
	}
	if r.MaxCycles < 0 {
		return &adaptnoc.FieldError{Field: "maxCycles", Msg: fmt.Sprintf("negative cap %d", r.MaxCycles)}
	}
	if r.Config.RL.SharedAgent != nil {
		return &adaptnoc.FieldError{Field: "rl", Msg: "in-process shared agent cannot be served"}
	}
	for i, a := range r.Config.Apps {
		// A trace must arrive inline: the server never reads server-side
		// paths on a client's behalf, and only inline bytes enter the
		// content-addressed cache key.
		if a.Trace != "" {
			return &adaptnoc.FieldError{
				Field: fmt.Sprintf("config.apps[%d].trace", i),
				Msg:   "trace file paths cannot be served",
				Hint:  "inline the trace bytes as traceData",
			}
		}
	}
	if err := r.Config.Validate(); err != nil {
		if fe, ok := err.(*adaptnoc.FieldError); ok {
			return &adaptnoc.FieldError{Field: "config." + fe.Field, Msg: fe.Msg, Hint: fe.Hint}
		}
		return err
	}
	return nil
}

// ParseRequest strictly decodes and validates a JSON job request: unknown
// fields anywhere in the document (typos would otherwise silently become
// defaults) and trailing garbage are errors.
func ParseRequest(data []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("serve: parsing request: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Request{}, fmt.Errorf("serve: trailing data after request")
	}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}
