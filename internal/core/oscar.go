package core

import (
	"adaptnoc/internal/noc"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/system"
)

// OSCARController implements the dynamic virtual-channel allocation of the
// OSCAR baseline (design point 2, Section IV-A): the shared mesh's VCs are
// partitioned among the co-running applications, and the partition is
// re-balanced every epoch in proportion to each application's measured
// injection demand (every application always keeps at least one VC per
// virtual network, which preserves deadlock freedom — the routing function
// itself is untouched).
type OSCARController struct {
	EpochCycles int

	kernel *sim.Kernel
	net    *noc.Network
	apps   []*system.App

	// assignment maps app ID -> allowed VC indices within a vnet.
	assignment map[int][]int
	demand     map[int]int64
	started    bool

	// Reallocations counts partition changes (diagnostic).
	Reallocations int64
}

// NewOSCARController installs the VC policy on every router of the
// network. The partition binds only where applications contend: a packet
// traversing a router inside its own application's region may use any VC
// (no interference to manage there), while foreign traffic — e.g. requests
// and replies of a neighbour reaching a shared memory controller — is
// confined to its application's allocated VCs, protecting the region
// owner's buffers.
func NewOSCARController(kernel *sim.Kernel, net *noc.Network, apps []*system.App) *OSCARController {
	o := &OSCARController{
		EpochCycles: 50000,
		kernel:      kernel,
		net:         net,
		apps:        apps,
		assignment:  make(map[int][]int),
		demand:      make(map[int]int64),
	}
	o.partition(equalShares(len(apps)))
	kernel.RegisterOp(opOscarEpoch, func(now sim.Cycle, _ [3]int64) { o.onEpoch(now) })

	// ownerOf maps each tile to the app occupying it (-1 if none).
	ownerOf := make([]int, net.Cfg.NumNodes())
	for i := range ownerOf {
		ownerOf[i] = -1
	}
	for _, a := range apps {
		for _, t := range a.Tiles {
			ownerOf[t] = a.ID
		}
	}
	for _, r := range net.Routers() {
		owner := ownerOf[r.ID]
		policy := func(p *noc.Packet, _ noc.VNet, vc int) bool {
			if p.App == owner {
				return true // home traffic keeps the full buffer pool
			}
			allowed, ok := o.assignment[p.App]
			if !ok {
				return true
			}
			for _, a := range allowed {
				if a == vc {
					return true
				}
			}
			return false
		}
		r.SetVCPolicy(policy)
	}
	return o
}

// Start schedules the periodic re-balancing.
func (o *OSCARController) Start() {
	if o.started {
		panic("core: OSCAR controller started twice")
	}
	o.started = true
	o.kernel.AfterOp(sim.Cycle(o.EpochCycles), opOscarEpoch, 0, 0, 0)
}

func (o *OSCARController) onEpoch(now sim.Cycle) {
	// Demand = packets delivered for each app this epoch.
	shares := make([]float64, len(o.apps))
	var total float64
	for i, a := range o.apps {
		tot := a.Totals()
		d := (tot.CoherencePackets + tot.DataPackets) - o.demand[a.ID]
		o.demand[a.ID] = tot.CoherencePackets + tot.DataPackets
		shares[i] = float64(d)
		total += float64(d)
	}
	if total == 0 {
		shares = equalShares(len(o.apps))
	} else {
		for i := range shares {
			shares[i] /= total
		}
	}
	o.partition(shares)
	o.kernel.AfterOp(sim.Cycle(o.EpochCycles), opOscarEpoch, 0, 0, 0)
}

// partition assigns the V VCs of each vnet to apps by largest-remainder
// with a floor of one VC per app.
func (o *OSCARController) partition(shares []float64) {
	v := o.net.Cfg.VCsPerVNet
	n := len(o.apps)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	extra := v - n
	if extra < 0 {
		// More apps than VCs: round-robin overlap, apps share VCs.
		newAssign := make(map[int][]int, n)
		for i, a := range o.apps {
			newAssign[a.ID] = []int{i % v}
		}
		o.applyAssignment(newAssign)
		return
	}
	// Hand out the extra VCs to the highest shares.
	for e := 0; e < extra; e++ {
		best, bestVal := 0, -1.0
		for i, s := range shares {
			val := s - float64(counts[i]-1)/float64(v)
			if val > bestVal {
				best, bestVal = i, val
			}
		}
		counts[best]++
	}
	newAssign := make(map[int][]int, n)
	vc := 0
	for i, a := range o.apps {
		for k := 0; k < counts[i]; k++ {
			newAssign[a.ID] = append(newAssign[a.ID], vc)
			vc++
		}
	}
	o.applyAssignment(newAssign)
}

func (o *OSCARController) applyAssignment(newAssign map[int][]int) {
	if !sameAssignment(o.assignment, newAssign) {
		o.Reallocations++
	}
	// Replace entries in place: the policy closure reads o.assignment.
	for k := range o.assignment {
		delete(o.assignment, k)
	}
	for k, v := range newAssign {
		o.assignment[k] = v
	}
}

func sameAssignment(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func equalShares(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1.0 / float64(n)
	}
	return s
}
