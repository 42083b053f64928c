package fleet

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"adaptnoc/internal/obs"
)

// handleMetrics renders the coordinator's counters in the Prometheus text
// exposition format with the internal/obs writers the serve daemon uses
// (the repository takes no dependencies). Work-item gauges are recomputed
// by scanning the item table — the items are the source of truth, so the
// gauges can never drift from the scheduler's actual state.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	var pending, leased, done, failed, retried int
	c.mu.Lock()
	for _, it := range c.items {
		state, _, _, retries, _ := it.snapshot()
		switch state {
		case ItemPending:
			pending++
		case ItemLeased:
			leased++
		case ItemDone:
			done++
		case ItemFailed:
			failed++
		}
		if retries > 0 {
			retried++
		}
	}
	workers := make([]*worker, 0, len(c.workers))
	for _, wk := range c.workers {
		workers = append(workers, wk)
	}
	c.mu.Unlock()

	obs.WritePromGauge(&b, "adaptnoc_fleet_items_pending", "Work items awaiting dispatch.", pending)
	obs.WritePromGauge(&b, "adaptnoc_fleet_items_leased", "Work items leased to a worker.", leased)
	obs.WritePromGauge(&b, "adaptnoc_fleet_items_done", "Work items completed.", done)
	obs.WritePromGauge(&b, "adaptnoc_fleet_items_failed", "Work items that failed permanently.", failed)
	obs.WritePromGauge(&b, "adaptnoc_fleet_items_retried", "Work items that needed at least one requeue.", retried)

	healthy := 0
	for _, wk := range workers {
		if wk.healthy(c.opts.HeartbeatTTL) {
			healthy++
		}
	}
	obs.WritePromGauge(&b, "adaptnoc_fleet_workers_registered", "Workers currently registered.", len(workers))
	obs.WritePromGauge(&b, "adaptnoc_fleet_workers_healthy", "Registered workers passing health checks.", healthy)

	// Per-worker liveness, one labeled series per worker, in stable order.
	sort.Slice(workers, func(i, j int) bool { return workers[i].id < workers[j].id })
	obs.WritePromHeader(&b, "adaptnoc_fleet_worker_up", "1 while the worker passes health checks.", "gauge")
	for _, wk := range workers {
		up := 0
		if wk.healthy(c.opts.HeartbeatTTL) {
			up = 1
		}
		fmt.Fprintf(&b, "adaptnoc_fleet_worker_up{worker=%q} %d\n", wk.id, up)
	}

	obs.WritePromCounter(&b, "adaptnoc_fleet_dispatches_total", "Jobs dispatched to workers.", c.dispatches.Load())
	obs.WritePromCounter(&b, "adaptnoc_fleet_retries_total", "Requeues after a lost lease or failed dispatch.", c.requeues.Load())
	obs.WritePromCounter(&b, "adaptnoc_fleet_steals_total", "Duplicate dispatches to idle workers.", c.steals.Load())
	obs.WritePromCounter(&b, "adaptnoc_fleet_local_runs_total", "Items evaluated on the coordinator (no workers).", c.localRuns.Load())
	obs.WritePromCounter(&b, "adaptnoc_fleet_handoffs_total", "Checkpoint blobs shipped to a replacement worker.", c.handoffs.Load())
	obs.WritePromCounter(&b, "adaptnoc_fleet_delta_shadows_total", "Checkpoint shadows refreshed via delta frames instead of full blobs.", c.deltaShadows.Load())
	obs.WritePromCounter(&b, "adaptnoc_fleet_suites_total", "Suites accepted.", c.suitesTotal.Load())

	// Item latency is recorded in milliseconds; obs exports it in the
	// Prometheus base unit (seconds).
	c.histMu.Lock()
	obs.WritePromHistogram(&b, "adaptnoc_fleet_item_seconds",
		"Wall-clock time from first dispatch to completion per work item.", c.latency, 1e-3)
	c.histMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
