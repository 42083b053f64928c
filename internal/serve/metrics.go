package serve

import (
	"net/http"
	"strings"

	"adaptnoc/internal/obs"
)

// handleMetrics renders the daemon's counters in the Prometheus text
// exposition format, hand-rolled on purpose: the repository takes no
// dependencies, and the format is four line shapes (internal/obs). The
// job-latency histogram reuses the simulator's sim.Histogram, re-expressed
// as the cumulative le-bucket form Prometheus expects.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	s.admitMu.Lock()
	draining := 0
	if s.draining {
		draining = 1
	}
	s.admitMu.Unlock()

	obs.WritePromGauge(&b, "adaptnoc_serve_queue_depth", "Jobs admitted but not yet started.", len(s.queue))
	obs.WritePromGauge(&b, "adaptnoc_serve_inflight", "Jobs currently executing.", s.inflight.Load())
	obs.WritePromGauge(&b, "adaptnoc_serve_draining", "1 while shutdown is draining the queue.", draining)
	obs.WritePromCounter(&b, "adaptnoc_serve_jobs_started_total", "Jobs handed to a worker.", s.started.Load())
	obs.WritePromCounter(&b, "adaptnoc_serve_jobs_completed_total", "Jobs finished successfully.", s.counts[0].Load())
	obs.WritePromCounter(&b, "adaptnoc_serve_jobs_failed_total", "Jobs that returned an error.", s.counts[1].Load())
	obs.WritePromCounter(&b, "adaptnoc_serve_jobs_canceled_total", "Jobs canceled by DELETE or shutdown.", s.counts[2].Load())

	cs := s.cache.Stats()
	obs.WritePromCounter(&b, "adaptnoc_serve_cache_hits_total", "Submissions answered from the result cache.", cs.Hits)
	obs.WritePromCounter(&b, "adaptnoc_serve_cache_misses_total", "Submissions that had to simulate.", cs.Misses)
	obs.WritePromCounter(&b, "adaptnoc_serve_cache_disk_hits_total", "Cache hits served from the persistence directory.", cs.DiskHits)
	obs.WritePromGauge(&b, "adaptnoc_serve_cache_entries", "Results held in memory.", cs.Entries)
	obs.WritePromGauge(&b, "adaptnoc_serve_cache_bytes", "Bytes of results held in memory.", cs.Bytes)

	ckptEntries, ckptBytes, ckptEvictions := s.ckpts.stats()
	obs.WritePromGauge(&b, "adaptnoc_serve_checkpoint_entries", "Checkpoints held in the checkpoint directory.", ckptEntries)
	obs.WritePromGauge(&b, "adaptnoc_serve_checkpoint_bytes", "Bytes of checkpoints held in the checkpoint directory.", ckptBytes)
	obs.WritePromCounter(&b, "adaptnoc_serve_checkpoint_evictions_total", "Checkpoints deleted to hold the directory's byte budget.", ckptEvictions)

	// Job latency is recorded in milliseconds; obs exports it in the
	// Prometheus base unit (seconds).
	s.histMu.Lock()
	obs.WritePromHistogram(&b, "adaptnoc_serve_job_seconds",
		"Wall-clock job execution time.", s.latency, 1e-3)
	s.histMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
