package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// sim runs the command in process and returns its stdout; a run that
// fails is fatal unless wantErr names the failure it must report.
func sim(t *testing.T, wantErr string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("adaptnoc-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("adaptnoc-sim %s: error %v, want %q", strings.Join(args, " "), err, wantErr)
	}
	return stdout.String()
}

// TestRuns drives the command end to end through its flags.
func TestRuns(t *testing.T) {
	// A run checkpointed every few slices and resumed from the file prints
	// the bytes of an uninterrupted run: a fixed window, and a budgeted run
	// whose first leg hits its cap before the apps finish.
	t.Run("resume/window", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		want := sim(t, "", "-design", "baseline", "-epoch", "2000", "-cycles", "6000", "-json")
		sim(t, "", "-design", "baseline", "-epoch", "2000", "-cycles", "3500",
			"-checkpoint", ckpt, "-checkpoint-every", "1000")
		if got := sim(t, "", "-resume", ckpt, "-cycles", "6000", "-json"); got != want {
			t.Fatalf("resumed run differs from the uninterrupted one:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("resume/budget", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		want := sim(t, "", "-design", "adapt-noc", "-epoch", "1000", "-budget", "3000", "-cycles", "100", "-json")
		sim(t, "workload did not finish", "-design", "adapt-noc", "-epoch", "1000", "-budget", "3000",
			"-cycles", "20", "-checkpoint", ckpt, "-checkpoint-every", "700")
		if got := sim(t, "", "-resume", ckpt, "-cycles", "100", "-json"); got != want {
			t.Fatalf("resumed run differs from the uninterrupted one:\n got %s\nwant %s", got, want)
		}
	})

	// A seeded fault campaign on a static and an adaptive design, with the
	// invariant checker armed every cycle: faults strike mid-run, drops are
	// accounted, and nothing is silently lost.
	for _, design := range []string{"baseline", "adapt-noc"} {
		t.Run("faults/"+design, func(t *testing.T) {
			sim(t, "", "-design", design, "-cycles", "20000", "-epoch", "10000", "-faults", "3", "-verify", "1")
		})
	}

	// Record a baseline run into a dependency trace, then replay it serially
	// and on four tick shards: the two replays print identical bytes.
	t.Run("trace/shards", func(t *testing.T) {
		trc := filepath.Join(t.TempDir(), "run.trc")
		sim(t, "", "-design", "baseline", "-cycles", "8000", "-epoch", "4000", "-record-trace", trc)
		serial := sim(t, "", "-trace", trc, "-json")
		if sharded := sim(t, "", "-trace", trc, "-shards", "4", "-json"); sharded != serial {
			t.Fatalf("sharded replay differs from the serial one:\n got %s\nwant %s", sharded, serial)
		}
	})

	// A shard count below 1 is a usage error (exit 2) with a one-line
	// reason, not a request for some other tick mode.
	t.Run("shards/0", func(t *testing.T) {
		var stderr bytes.Buffer
		if err := run([]string{"-shards", "0"}, io.Discard, &stderr); err != errUsage || !strings.Contains(stderr.String(), "-shards") {
			t.Fatalf("-shards 0: error %v, stderr %q; want a usage error naming -shards", err, stderr.String())
		}
	})
}
