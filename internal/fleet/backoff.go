package fleet

import (
	"time"

	"adaptnoc/internal/httpkit"
)

// Requeue backoff shape: exponential from base to cap, with full jitter on
// the upper half so a burst of failures (one dead worker dropping many
// leases at once) spreads its retries instead of thundering back in step.
const (
	backoffBase = 250 * time.Millisecond
	backoffCap  = 30 * time.Second
)

// backoffJitter draws the coordinator's requeue waits from a seeded
// source, so a seeded coordinator retries on a reproducible schedule (tests
// pin the seed; production seeds from the clock).
type backoffJitter struct{ *httpkit.Jitter }

// backoff returns the wait before retry number attempt (1-based): an
// exponential envelope with the actual wait drawn uniformly from
// [envelope/2, envelope).
func (j backoffJitter) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	half := d / 2
	return half + time.Duration(j.Below(uint64(half)))
}
