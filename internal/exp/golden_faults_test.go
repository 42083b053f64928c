package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// faultGoldenCounts keep the sweep small: a fault-free reference row plus
// two escalating campaigns.
var faultGoldenCounts = []int{0, 2, 4}

func runFaultTable(t *testing.T, o Options) []byte {
	t.Helper()
	tab, err := RunFaults(o, faultGoldenCounts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	return buf.Bytes()
}

// TestGoldenFaultTable locks the fault-sweep table to
// testdata/golden_faults.txt and proves the table is byte-identical
// across -parallel and -shards settings (execution knobs must never leak
// into fault outcomes); the default run goes through restoreTripwire.
// Refresh intentionally with:
//
//	go test ./internal/exp -run TestGoldenFaultTable -update
func TestGoldenFaultTable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fault run is a 21-simulation sweep")
	}
	o := goldenOptions()
	o.Eval = restoreTripwire(t, o)
	got := runFaultTable(t, o)

	o2 := goldenOptions()
	o2.Parallelism = 1
	o2.Shards = 2
	if again := runFaultTable(t, o2); !bytes.Equal(got, again) {
		t.Fatalf("fault table differs across parallelism/shard settings.\n--- default ---\n%s\n--- serial pool, 2 shards ---\n%s", got, again)
	}

	path := filepath.Join("testdata", "golden_faults.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fault table drifted from %s.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, refresh with -update.",
			path, got, want)
	}
}
