package adaptnoc

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleResults() Results {
	return Results{
		Design: DesignAdaptNoC,
		Cycles: 1000,
		Apps: []AppResult{
			{Profile: "bfs", AvgTotalLatency: 20, AvgNetLatency: 15, AvgQueueLatency: 5,
				AvgHops: 4, DeliveredPackets: 100, ExecTime: 900},
			{Profile: "ferret", AvgTotalLatency: 10, AvgNetLatency: 8, AvgQueueLatency: 2,
				AvgHops: 2, DeliveredPackets: 300, ExecTime: 800},
		},
	}
}

func TestResultsWeightedMeans(t *testing.T) {
	t.Parallel()
	r := sampleResults()
	// Delivery-weighted: (20*100 + 10*300) / 400 = 12.5.
	if got := r.MeanLatency(); got != 12.5 {
		t.Fatalf("MeanLatency = %v, want 12.5", got)
	}
	if got := r.MeanHops(); got != 2.5 {
		t.Fatalf("MeanHops = %v, want 2.5", got)
	}
	if got := r.MeanExecTime(); got != 850 {
		t.Fatalf("MeanExecTime = %v, want 850", got)
	}
	// An unfinished app poisons exec time.
	r.Apps[0].ExecTime = -1
	if got := r.MeanExecTime(); got != -1 {
		t.Fatalf("unfinished MeanExecTime = %v, want -1", got)
	}
	var empty Results
	if empty.MeanLatency() != 0 || empty.MeanHops() != 0 || empty.MeanExecTime() != -1 {
		t.Fatal("empty results not handled")
	}
}

func TestResultsStringAndJSON(t *testing.T) {
	t.Parallel()
	r := sampleResults()
	s := r.String()
	for _, want := range []string{"adapt-noc", "bfs", "ferret", "exec=900"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Apps[1].DeliveredPackets != 300 {
		t.Fatal("JSON round trip lost data")
	}
}
