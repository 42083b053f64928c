package exp

import (
	"context"
	"fmt"

	"adaptnoc"
	"adaptnoc/internal/fault"
)

// RunFaults sweeps the fault count over the mixed workload for every
// design and reports mean packet latency and survival rate (delivered /
// enqueued) per design at each count. All designs face the identical
// generated schedule at a given count — the same links, routers, and VCs
// die at the same cycles — so the columns compare fault *response*, not
// fault luck: Adapt designs re-allocate adaptable links around the dead
// regions while the static designs can only prune and drop.
//
// Each (design, count) pair is one pool job; rows are assembled in the
// serial loop's order, so the table is byte-identical at any Parallelism
// or Shards setting.
func RunFaults(o Options, counts []int) (Table, error) {
	apps := adaptnoc.DefaultMixed(0)
	// The generation horizon is the measurement window: strikes land in
	// [Cycles/10, Cycles/2], leaving the back half of the run to show the
	// damage in the latency and survival numbers.
	schedules := make(map[int][]fault.Event, len(counts))
	for _, n := range counts {
		if n > 0 {
			schedules[n] = fault.Generate(n, o.Seed, 8, 8, int64(o.Cycles))
		}
	}

	type job struct {
		design adaptnoc.Design
		count  int
	}
	var jobs []job
	for _, n := range counts {
		for _, d := range AllDesigns {
			jobs = append(jobs, job{d, n})
		}
	}
	results, err := mapJobs(o, jobs, func(ctx context.Context, j job) (adaptnoc.Results, error) {
		cfg := o.buildConfig(j.design, apps)
		cfg.Faults = schedules[j.count]
		res, err := o.evalConfig(ctx, cfg, o.Cycles)
		if err != nil {
			return adaptnoc.Results{}, fmt.Errorf("exp: %v faults=%d: %w", j.design, j.count, err)
		}
		return res, nil
	})
	if err != nil {
		return Table{}, err
	}

	t := Table{
		Title:   "Fault tolerance — latency and survival rate vs fault count (mixed workload)",
		Columns: []string{"faults"},
		Notes: []string{
			"identical generated fault schedule per count across all designs (same seed)",
			"survival = delivered / (delivered + dropped); static designs drop what the pruned tables cannot route",
		},
	}
	for _, d := range AllDesigns {
		t.Columns = append(t.Columns, d.String()+" lat", d.String()+" surv")
	}
	for ci, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for di := range AllDesigns {
			res := results[ci*len(AllDesigns)+di]
			row = append(row, f2(res.MeanLatency()), f3(res.SurvivalRate()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
