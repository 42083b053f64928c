package traffic

// Checkpoint support. Patterns are stateless by design: Dst is a pure
// function of (src, rng), with the RNG passed in by the caller, so a
// Pattern carries nothing to serialize — its region and parameters come
// from the run configuration. The only stateful type in this package is
// OpenLoopSource, whose state is its private RNG stream and injection
// counter.

import "adaptnoc/internal/snap"

// SnapState is the source's dynamic state (RNG stream and injection
// counter). The network, pattern, tile set, and rates are configuration
// and are not serialized.
func (s *OpenLoopSource) SnapState(c *snap.Codec) {
	s.RNG.SnapState(c)
	c.I64(&s.Injected)
}
