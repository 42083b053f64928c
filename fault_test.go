package adaptnoc_test

// The fault keystone: a fault schedule is part of the configuration, so a
// faulted run is as deterministic, shardable, and checkpointable as a
// fault-free one. Every test here runs with the full invariant checker
// installed — flits in a failed component must be dropped-and-accounted,
// never silently lost — and the healed topology must stay deadlock-free.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/deadlock"
	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/obs"
	"adaptnoc/internal/runner"
)

// faultConfig is the mixed workload with a fault schedule attached.
func faultConfig(d adaptnoc.Design, events ...fault.Event) adaptnoc.Config {
	return adaptnoc.Config{
		Design:      d,
		Apps:        adaptnoc.DefaultMixed(0),
		Seed:        1234,
		EpochCycles: 10000,
		Faults:      events,
	}
}

// verifiedRun builds the sim, installs the per-cycle invariant checker,
// runs it, and returns sim + results.
func verifiedRun(t *testing.T, cfg adaptnoc.Config, cycles adaptnoc.Cycle) (*adaptnoc.Sim, adaptnoc.Results) {
	t.Helper()
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Net.SetVerifier(1, obs.Verify)
	s.Run(cycles)
	if err := obs.Verify(s.Net, s.Kernel.Now()); err != nil {
		t.Fatal(err)
	}
	return s, s.Results()
}

func totalDropped(r adaptnoc.Results) int64 {
	var n int64
	for _, a := range r.Apps {
		n += a.DroppedPackets
	}
	return n
}

// checkHealedRoutes walks every still-routable (src, dst, vnet) pair
// through the post-fault tables and requires the walks to terminate and
// the resulting channel-dependency graph to be acyclic.
func checkHealedRoutes(t *testing.T, s *adaptnoc.Sim) (routable, severed int) {
	t.Helper()
	c := deadlock.NewChecker(s.Net)
	n := noc.NodeID(s.Net.Cfg.NumNodes())
	for v := noc.VNet(0); v < noc.NumVNets; v++ {
		for src := noc.NodeID(0); src < n; src++ {
			for dst := noc.NodeID(0); dst < n; dst++ {
				if src == dst {
					continue
				}
				sr, dr := s.Net.ServingRouter(src), s.Net.ServingRouter(dst)
				if sr < 0 || dr < 0 {
					severed++
					continue
				}
				tbl := s.Net.Router(sr).Table(v)
				if tbl == nil {
					severed++
					continue
				}
				if _, ok := tbl.Lookup(dst); !ok {
					severed++
					continue
				}
				if _, err := c.WalkRoute(src, dst, v); err != nil {
					t.Fatalf("healed route %d->%d (%s): %v", src, dst, v, err)
				}
				routable++
			}
		}
	}
	if cyc := c.FindCycle(); cyc != "" {
		t.Fatalf("healed topology has a channel-dependency cycle: %s", cyc)
	}
	return routable, severed
}

// TestFaultMeshLinkDropsAreAccounted breaks one mesh link permanently.
// XY routing cannot steer around it, so the static design must drop — and
// account — every packet the pruned tables can no longer deliver.
func TestFaultMeshLinkDropsAreAccounted(t *testing.T) {
	t.Parallel()
	cfg := faultConfig(adaptnoc.DesignBaseline,
		// The east link out of router (1,3) = 25, mid-GPU-region: plenty
		// of traffic crosses it.
		fault.Event{Cycle: 3000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast},
	)
	s, res := verifiedRun(t, cfg, 20000)
	if got := totalDropped(res); got == 0 {
		t.Error("permanent mesh link fault dropped no packets")
	}
	if sr := res.SurvivalRate(); sr >= 1 || sr <= 0 {
		t.Errorf("survival rate %v, want in (0,1)", sr)
	}
	if eng := s.FaultEngine(); eng == nil || eng.Strikes != 1 {
		t.Fatalf("fault engine strikes = %v, want 1", eng)
	}
	checkHealedRoutes(t, s)
	// The table renders every app's drops.
	for _, a := range res.Apps {
		drop := fmt.Sprintf(" drop=%d", a.DroppedPackets)
		if a.DroppedPackets > 0 && !strings.Contains(res.String(), drop) {
			t.Errorf("results table lacks %q:\n%s", drop, res)
		}
	}
}

// TestFaultAdaptRouterHealsAroundDeadRegion kills a router under the
// Adapt design: the engine re-allocates adaptable links around the dead
// region and rebuilds spanning-forest tables, so every surviving pair
// stays connected and only routes touching the dead router's tiles sever.
func TestFaultAdaptRouterHealsAroundDeadRegion(t *testing.T) {
	t.Parallel()
	cfg := faultConfig(adaptnoc.DesignAdaptNoC,
		fault.Event{Cycle: 3000, Kind: fault.KindRouter, Router: 27},
	)
	s, res := verifiedRun(t, cfg, 20000)
	routable, _ := checkHealedRoutes(t, s)
	if routable == 0 {
		t.Fatal("no routable pairs survived the heal")
	}
	// The dead router's tiles detach; every other tile of every region
	// must stay routable to every same-region peer (Adapt subNoCs are
	// per-region, so cross-region pairs were never routable).
	c := deadlock.NewChecker(s.Net)
	detached := 0
	for _, app := range cfg.Apps {
		var live []noc.NodeID
		for _, tile := range app.Region.Tiles(s.Net.Cfg.Width) {
			if s.Net.ServingRouter(tile) < 0 {
				detached++
				continue
			}
			live = append(live, tile)
		}
		for _, src := range live {
			for _, dst := range live {
				if src == dst || s.Net.ServingRouter(src) == s.Net.ServingRouter(dst) {
					continue
				}
				for v := noc.VNet(0); v < noc.NumVNets; v++ {
					if _, err := c.WalkRoute(src, dst, v); err != nil {
						t.Fatalf("surviving pair %d->%d (%s) severed after heal: %v", src, dst, v, err)
					}
				}
			}
		}
	}
	if detached == 0 {
		t.Error("router fault detached no tiles")
	}
	if cyc := c.FindCycle(); cyc != "" {
		t.Fatalf("healed topology has a dependency cycle: %s", cyc)
	}
	if sr := res.SurvivalRate(); sr <= 0.9 {
		t.Errorf("adapt survival rate %v after healing, want > 0.9", sr)
	}
}

// TestFaultTransientRecovers schedules a transient link fault with a
// repair: after the repair applies, the engine must report the strike
// repaired and the full mesh must be routable again.
func TestFaultTransientRecovers(t *testing.T) {
	t.Parallel()
	cfg := faultConfig(adaptnoc.DesignBaseline,
		fault.Event{Cycle: 2000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast, Repair: 4000},
	)
	s, res := verifiedRun(t, cfg, 16000)
	eng := s.FaultEngine()
	// A repair counts only when it lifts active damage, so one strike and
	// one repair leave none.
	if eng.Strikes != 1 || eng.Repairs != 1 {
		t.Fatalf("strikes=%d repairs=%d, want 1/1", eng.Strikes, eng.Repairs)
	}
	routable, severed := checkHealedRoutes(t, s)
	if severed != 0 {
		t.Errorf("%d severed pairs after full repair (routable %d)", severed, routable)
	}
	// Traffic crossing the 4000-cycle outage window was dropped…
	if totalDropped(res) == 0 {
		t.Error("outage window dropped nothing")
	}
	// …and nothing drops after repair: re-run the tail and compare.
	before := totalDropped(res)
	s.Run(8000)
	if after := totalDropped(s.Results()); after != before {
		t.Errorf("drops kept accruing after repair: %d -> %d", before, after)
	}
}

// TestFaultVCMaskedNotDropped masks one VC of one link. The router keeps
// routing on the surviving VCs, so nothing drops and nothing severs.
func TestFaultVCMaskedNotDropped(t *testing.T) {
	t.Parallel()
	cfg := faultConfig(adaptnoc.DesignBaseline,
		fault.Event{Cycle: 3000, Kind: fault.KindVC, Router: 25, Port: noc.PortEast, VC: 1},
	)
	s, res := verifiedRun(t, cfg, 16000)
	if got := totalDropped(res); got != 0 {
		t.Errorf("single-VC fault dropped %d packets", got)
	}
	if _, severed := checkHealedRoutes(t, s); severed != 0 {
		t.Errorf("%d pairs severed by a VC mask", severed)
	}
	if res.SurvivalRate() != 1 {
		t.Errorf("survival %v under a VC mask, want 1", res.SurvivalRate())
	}
}

// TestFaultOSCAREscalatesVCFault proves the design-specific escalation
// policy: OSCAR's opaque VC admission cannot honour a masked VC, so the
// same VC event that a mesh absorbs becomes a link fault under OSCAR.
func TestFaultOSCAREscalatesVCFault(t *testing.T) {
	t.Parallel()
	ev := fault.Event{Cycle: 3000, Kind: fault.KindVC, Router: 25, Port: noc.PortEast, VC: 1}
	_, res := verifiedRun(t, faultConfig(adaptnoc.DesignOSCAR, ev), 16000)
	if totalDropped(res) == 0 {
		t.Error("OSCAR VC fault escalated to a link cut but dropped nothing")
	}
}

// TestFaultShardedByteIdentical runs a faulted campaign serial and
// sharded: the shard count must not perturb drop accounting, healing, or
// the checkpoint encoding.
func TestFaultShardedByteIdentical(t *testing.T) {
	t.Parallel()
	const cycles = 16000
	events := []fault.Event{
		{Cycle: 3000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast},
		{Cycle: 6000, Kind: fault.KindRouter, Router: 44},
		{Cycle: 9000, Kind: fault.KindVC, Router: 10, Port: noc.PortNorth, VC: 0, Repair: 3000},
	}
	for _, d := range []adaptnoc.Design{adaptnoc.DesignBaseline, adaptnoc.DesignAdaptNoC} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := faultConfig(d, events...)
			ref, err := adaptnoc.NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(cycles)
			wantRes := resultsJSON(t, ref.Results())
			wantBlob, err := ref.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4} {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					s, err := adaptnoc.NewSim(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.SetShards(k)
					defer s.StopWorkers()
					s.Run(cycles)
					if got := resultsJSON(t, s.Results()); !bytes.Equal(got, wantRes) {
						t.Errorf("sharded faulted results differ:\n got %s\nwant %s", got, wantRes)
					}
					blob, err := s.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blob, wantBlob) {
						t.Errorf("sharded faulted checkpoint differs (%d vs %d bytes)", len(blob), len(wantBlob))
					}
				})
			}
		})
	}
}

// TestFaultCheckpointMidCampaign checkpoints between the strike and the
// repair of a transient fault — damaged wiring, masked VCs, pending
// repair, and drop tallies all mid-flight — and requires restore to be
// byte-identical across the process boundary and across shard counts.
func TestFaultCheckpointMidCampaign(t *testing.T) {
	t.Parallel()
	events := []fault.Event{
		{Cycle: 3000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast, Repair: 9000},
		{Cycle: 5000, Kind: fault.KindRouter, Router: 44},
	}
	for _, d := range []adaptnoc.Design{adaptnoc.DesignBaseline, adaptnoc.DesignAdaptNoC} {
		t.Run(d.String(), func(t *testing.T) {
			// 7000 sits after both strikes, before the repair at ~12000.
			resumeByteIdentical(t, faultConfig(d, events...), 7000, 20000)
		})
	}
}

// TestFaultCheckpointRestoredIntoShardedRun crosses the two axes: a blob
// snapshotted mid-campaign on a serial run finishes identically when the
// restored sim runs sharded.
func TestFaultCheckpointRestoredIntoShardedRun(t *testing.T) {
	t.Parallel()
	cfg := faultConfig(adaptnoc.DesignAdaptNoC,
		fault.Event{Cycle: 3000, Kind: fault.KindRouter, Router: 27},
	)
	const mid, total = 7000, 18000
	ref, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(total)
	want := resultsJSON(t, ref.Results())

	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(mid)
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := adaptnoc.RestoreSim(blob)
	if err != nil {
		t.Fatal(err)
	}
	r.SetShards(2)
	defer r.StopWorkers()
	r.Run(total - mid)
	if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
		t.Errorf("mid-campaign blob + sharded finish diverged:\n got %s\nwant %s", got, want)
	}
}

// TestFaultPreFaultBlobStillDecodes proves backwards compatibility: a
// blob written by a fault-free configuration (the pre-fault layout, with
// no fault section) restores with an empty fault state.
func TestFaultPreFaultBlobStillDecodes(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5000)
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := adaptnoc.RestoreSim(blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultEngine() != nil {
		t.Error("fault-free blob restored with a live fault engine")
	}
	if got := totalDropped(r.Results()); got != 0 {
		t.Errorf("fault-free restore reports %d drops", got)
	}
}

// TestFaultCampaignReplay is the campaign workflow end to end: snapshot
// one warmed state, replay it under many generated fault schedules via
// the runner pool, and require each (blob, schedule) outcome to be
// byte-identical between a parallel sharded replay and a serial rerun.
func TestFaultCampaignReplay(t *testing.T) {
	t.Parallel()
	warm, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		t.Fatal(err)
	}
	warm.Run(5000)
	blob, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	w, h := warm.Net.Cfg.Width, warm.Net.Cfg.Height
	var schedules [][]fault.Event
	for _, seed := range runner.Seeds(99, 4) {
		sched := fault.Generate(3, seed, w, h, 20000)
		// Generated strikes land in [horizon/10, horizon/2); shift them
		// past the warmed snapshot's cycle 5000.
		for i := range sched {
			sched[i].Cycle += 6000
		}
		schedules = append(schedules, sched)
	}

	replay := func(sched []fault.Event, shards int) []byte {
		r, err := adaptnoc.RestoreSim(blob)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			r.SetShards(shards)
			defer r.StopWorkers()
		}
		if err := r.ApplyFaultSchedule(sched); err != nil {
			t.Fatal(err)
		}
		r.Run(15000)
		return resultsJSON(t, r.Results())
	}

	got, err := runner.Map(context.Background(), 4, schedules,
		func(_ context.Context, sched []fault.Event) ([]byte, error) {
			return replay(sched, 2), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[string]bool)
	for i, sched := range schedules {
		want := replay(sched, 1)
		if !bytes.Equal(got[i], want) {
			t.Errorf("campaign %d: pooled sharded replay differs from serial rerun:\n got %s\nwant %s",
				i, got[i], want)
		}
		distinct[string(want)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d schedules produced identical results; campaigns are not exercising distinct faults", len(schedules))
	}
}

// TestFaultScheduleSurvivesCheckpoint proves ApplyFaultSchedule extends
// Cfg.Faults: a checkpoint taken after injection replays the extended
// schedule, striking faults the original config never contained.
func TestFaultScheduleSurvivesCheckpoint(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	sched := []fault.Event{{Cycle: 4000, Kind: fault.KindLink, Router: 25, Port: noc.PortEast}}
	if err := s.ApplyFaultSchedule(sched); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.Run(15000)
	want := resultsJSON(t, s.Results())

	r, err := adaptnoc.RestoreSim(blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultEngine() == nil {
		t.Fatal("restored sim lost the injected schedule")
	}
	r.Run(15000)
	if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
		t.Errorf("restored injected-schedule run diverged:\n got %s\nwant %s", got, want)
	}
	if r.FaultEngine().Strikes != 1 {
		t.Errorf("restored run struck %d faults, want 1", r.FaultEngine().Strikes)
	}
}

// TestFaultApplyScheduleRejectsPastCycles guards the replay API: a
// schedule striking at or before the current cycle is a caller bug.
func TestFaultApplyScheduleRejectsPastCycles(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5000)
	err = s.ApplyFaultSchedule([]fault.Event{{Cycle: 5000, Kind: fault.KindLink, Router: 1, Port: noc.PortEast}})
	if err == nil {
		t.Fatal("schedule striking at the current cycle was accepted")
	}
}

// TestFaultKillRowMeshVsAdapt is the headline claim in miniature: kill a
// full row of routers. The static mesh partitions — XY routes through the
// dead row sever, and cross-partition traffic drops — while Adapt-NoC
// bridges the gap over re-allocated adaptable links and keeps delivering.
func TestFaultKillRowMeshVsAdapt(t *testing.T) {
	t.Parallel()
	var row []fault.Event
	for x := 0; x < 8; x++ {
		row = append(row, fault.Event{Cycle: 3000, Kind: fault.KindRouter, Router: noc.NodeID(3*8 + x)})
	}
	_, mesh := verifiedRun(t, faultConfig(adaptnoc.DesignBaseline, row...), 20000)
	adaptSim, adaptRes := verifiedRun(t, faultConfig(adaptnoc.DesignAdaptNoC, row...), 20000)

	if mesh.SurvivalRate() >= 1 {
		t.Error("static mesh survived a severed row intact")
	}
	if adaptRes.SurvivalRate() <= mesh.SurvivalRate() {
		t.Errorf("adapt survival %v not better than mesh %v", adaptRes.SurvivalRate(), mesh.SurvivalRate())
	}
	// The bridged halves must reconnect: pairs spanning the dead row are
	// routable again under Adapt.
	c := deadlock.NewChecker(adaptSim.Net)
	crossed := 0
	for _, pair := range [][2]noc.NodeID{{0, 63}, {7, 56}, {16, 48}} {
		if _, err := c.WalkRoute(pair[0], pair[1], noc.VNetRequest); err == nil {
			crossed++
		}
	}
	if crossed == 0 {
		t.Error("no cross-row pair is routable after adapt healing")
	}
	if cyc := c.FindCycle(); cyc != "" {
		t.Fatalf("bridged topology has a dependency cycle: %s", cyc)
	}
}
