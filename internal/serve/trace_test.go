package serve_test

// Trace specs over the serving API: inline trace bytes enter the
// content-addressed cache key (two different recordings must never share
// a cached result), server-side file paths are rejected, and a replay
// request is budgeted (runs to completion, not for a fixed window).

import (
	"strings"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/serve"
	"adaptnoc/internal/traffic"
)

// traceBlob encodes a minimal single-app trace whose first node carries
// the given gap, so two calls with different gaps yield different bytes.
func traceBlob(t *testing.T, gap uint32) []byte {
	t.Helper()
	blob, err := traffic.EncodeTrace(&traffic.Trace{
		GridW: 8, GridH: 8,
		Apps: []traffic.TraceApp{{
			Profile: "bfs", X: 0, Y: 0, W: 4, H: 4,
			Nodes: []traffic.TraceNode{{Src: 0, Dst: 5, Gap: gap}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func traceConfig(t *testing.T, gap uint32) adaptnoc.Config {
	t.Helper()
	return adaptnoc.Config{
		Design: adaptnoc.DesignBaseline,
		Apps: []adaptnoc.AppSpec{{
			Region:    adaptnoc.Region{X: 0, Y: 0, W: 4, H: 4},
			TraceData: traceBlob(t, gap),
		}},
		Seed: 2021,
	}
}

func TestConfigKeyDistinguishesTraces(t *testing.T) {
	a := mustKey(t, traceConfig(t, 1))
	b := mustKey(t, traceConfig(t, 2))
	if a == b {
		t.Fatal("two different trace recordings produced the same cache key")
	}
	if again := mustKey(t, traceConfig(t, 1)); again != a {
		t.Fatal("the same trace recording produced different cache keys")
	}
}

func TestRequestRejectsTracePaths(t *testing.T) {
	cfg := traceConfig(t, 1)
	cfg.Apps[0].TraceData = nil
	cfg.Apps[0].Trace = "/data/run.trc"
	err := serve.Request{Config: cfg}.Validate()
	if err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("path-form trace spec accepted: %v", err)
	}
	fe, ok := err.(*adaptnoc.FieldError)
	if !ok || fe.Field != "config.apps[0].trace" {
		t.Fatalf("error does not name the offending field: %#v", err)
	}
}

func TestTraceRequestIsBudgeted(t *testing.T) {
	req := serve.Request{Config: traceConfig(t, 1)}
	if !req.Config.Finite() {
		t.Fatal("a trace replay must run to completion, not for a fixed window")
	}
	canon := req.Canonical()
	if canon.Cycles != 0 || canon.MaxCycles != serve.DefaultMaxCycles {
		t.Fatalf("canonical trace request kept a fixed window: %+v", canon)
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("inline trace request rejected: %v", err)
	}
}
