package overhead

import (
	"math"
	"testing"
)

func TestAdaptNoCAreaMatchesPaper(t *testing.T) {
	r := AdaptNoCArea()
	// Paper: baseline 8x8 NoC is 17.27 mm².
	if math.Abs(r.BaselineNoCMM2-17.27) > 0.05 {
		t.Errorf("baseline NoC area %.2f mm², paper 17.27", r.BaselineNoCMM2)
	}
	// Paper: Adapt-NoC nets out ~14% smaller after the VC trade.
	if r.SavingVsBaseline < 0.05 || r.SavingVsBaseline > 0.30 {
		t.Errorf("area saving %.0f%% outside the paper's ballpark (14%%)", 100*r.SavingVsBaseline)
	}
	if r.AdaptNoCMM2 >= r.BaselineNoCMM2 {
		t.Error("Adapt-NoC not smaller than baseline")
	}
}

func TestRouterAreaScaling(t *testing.T) {
	base := RouterArea(5, 120)
	bigger := RouterArea(10, 120)
	if bigger <= base {
		t.Fatal("more ports must cost area")
	}
	// Crossbar scales quadratically: 10 ports should more than double it.
	if bigger < base+3*CrossbarAreaUM2 {
		t.Errorf("crossbar scaling too weak: %v -> %v", base, bigger)
	}
	fewerBufs := RouterArea(5, 80)
	if want := base - BuffersAreaUM2/3; math.Abs(fewerBufs-want) > 1 {
		t.Errorf("buffer scaling: got %v want %v", fewerBufs, want)
	}
}

func TestWiringBudget(t *testing.T) {
	r := CheckWiringBudget()
	if !r.WithinBudget {
		t.Fatal("Adapt-NoC exceeds the wiring budget")
	}
	// Paper: 2 high-metal and 7 intermediate links per tile edge; our
	// derivation from the same pitch numbers must land nearby.
	if r.HighMetalLinks < 2 || r.HighMetalLinks > 3 {
		t.Errorf("high-metal links %d, paper 2", r.HighMetalLinks)
	}
	if r.IntermediateMetalLinks < 5 || r.IntermediateMetalLinks > 8 {
		t.Errorf("intermediate links %d, paper 7", r.IntermediateMetalLinks)
	}
	if r.RequiredLinks != 4 {
		t.Errorf("required links %d, paper 4", r.RequiredLinks)
	}
}

func TestRouterTimingMuxMerge(t *testing.T) {
	r := RouterTiming()
	// Paper Section V-B.3: merged RC 266 ps, merged ST 358 ps, VA 370 ps
	// stays critical, so the muxes cost no frequency.
	if r.MergedRCPS != 266 {
		t.Errorf("merged RC %.0f ps, paper 266", r.MergedRCPS)
	}
	if r.MergedSTPS != 358 {
		t.Errorf("merged ST %.0f ps, paper 358", r.MergedSTPS)
	}
	if !r.MuxMergeSafe {
		t.Error("mux merge reported unsafe")
	}
	if r.CriticalPS != VADelayPS {
		t.Errorf("critical stage %.0f ps, want VA %.0f", r.CriticalPS, VADelayPS)
	}
}

func TestLinkDelays(t *testing.T) {
	// Paper: 42 ps/mm high metal, 200 ps/mm intermediate.
	if HighMetal.DelayPSPerMM != 42 {
		t.Errorf("high-metal delay %v ps/mm", HighMetal.DelayPSPerMM)
	}
	if IntermediateMetal.DelayPSPerMM != 200 {
		t.Errorf("intermediate delay %v ps/mm", IntermediateMetal.DelayPSPerMM)
	}
}

func TestRLInferenceLatencyMatchesPaper(t *testing.T) {
	// Paper: the 12-15-15-4 DQN takes 486 ns on one adder + multiplier.
	got := RLInferenceNS([]int{12, 15, 15, 4})
	if math.Abs(got-486) > 2 {
		t.Errorf("DQN inference %.1f ns, paper 486", got)
	}
	// More MACs must take longer.
	if RLInferenceNS([]int{12, 50, 50, 4}) <= got {
		t.Error("latency not increasing in network size")
	}
}
