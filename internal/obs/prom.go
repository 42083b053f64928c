package obs

import (
	"fmt"
	"io"

	"adaptnoc/internal/sim"
)

// WritePromHistogram renders a sim.Histogram in the Prometheus text
// exposition format: cumulative le-bucket counts at the histogram's
// bucket boundaries, a +Inf bucket absorbing the overflow, and the
// _sum/_count pair. scale multiplies boundaries and the sum, converting
// the histogram's native unit into the exported one (Prometheus
// convention is base units — pass 1e-3 for a histogram recorded in
// milliseconds to export seconds).
//
// sim.Histogram serves simulated-cycle latencies everywhere else in the
// repository; this is the bridge that lets the serving daemon (and any
// future exporter) publish the same shape to a real monitoring stack.
func WritePromHistogram(w io.Writer, name, help string, h *sim.Histogram, scale float64) {
	WritePromHeader(w, name, help, "histogram")
	width, counts, overflow := h.Buckets()
	var cum int64
	for i, c := range counts {
		cum += c
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(int64(i+1)*width)*scale, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum+overflow)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Mean()*float64(h.N())*scale)
	fmt.Fprintf(w, "%s_count %d\n", name, h.N())
}

// WritePromHeader writes a series' HELP and TYPE lines; kind is the
// Prometheus type (gauge, counter, histogram).
func WritePromHeader(w io.Writer, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// WritePromGauge writes one unlabeled gauge with its HELP and TYPE lines.
func WritePromGauge(w io.Writer, name, help string, v any) {
	WritePromHeader(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// WritePromCounter writes one unlabeled counter with its HELP and TYPE
// lines.
func WritePromCounter(w io.Writer, name, help string, v int64) {
	WritePromHeader(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, v)
}
