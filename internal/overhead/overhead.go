// Package overhead reproduces the Section V-B analyses: the 45 nm area
// model (router components, whole-NoC totals, RL controllers, muxes and
// links), the wiring-density check against the Intel 45 nm metal stack,
// and the router/link/RL timing analysis with the mux-merging optimization.
// All constants are the paper's own published numbers.
package overhead

import "fmt"

// Paper-published area constants (45 nm, Synopsys DC), in square microns.
const (
	CrossbarAreaUM2      = 17806.0
	SwitchAllocAreaUM2   = 4589.0
	VCAllocAreaUM2       = 1062.0
	BuffersAreaUM2       = 246472.0 // baseline: 5 ports x 3 VCs x 2 vnets x 4 flits
	AdaptExtraPortsMM2   = 1.46     // peripheral-router extra ports
	RLControllersAreaUM2 = 100232.0 // all 8 controllers
	MuxArbLinkAreaUM2    = 107123.0 // arbiter + muxes + additional links
	baselineBufferFlits  = 5 * 3 * 2 * 4
)

// RouterArea returns the area of one router with the given port count and
// total buffer capacity in flits, scaling the paper's baseline components
// (crossbar quadratically in ports, allocators and buffers linearly).
func RouterArea(ports, bufferFlits int) float64 {
	pr := float64(ports) / 5.0
	return CrossbarAreaUM2*pr*pr +
		SwitchAllocAreaUM2*pr +
		VCAllocAreaUM2*pr +
		BuffersAreaUM2*float64(bufferFlits)/float64(baselineBufferFlits)
}

// AreaReport is the Section V-B.1 accounting.
type AreaReport struct {
	BaselineNoCMM2   float64
	AdaptNoCMM2      float64
	RLControllersMM2 float64
	MuxArbLinksMM2   float64
	// SavingVsBaseline is the fractional area saving of Adapt-NoC after
	// the VC reduction (paper: 14%).
	SavingVsBaseline float64
}

// AdaptNoCArea reproduces the paper's bottom line: the Adapt-NoC trades
// one VC per vnet of buffering (3 -> 2) for the extra ports, muxes, RL
// controllers and links, ending up ~14% smaller than the baseline.
func AdaptNoCArea() AreaReport {
	routers := 64.0
	baselinePerRouter := RouterArea(5, baselineBufferFlits)
	adaptBufferFlits := 5 * 2 * 2 * 4 // 2 VCs per vnet
	adaptPerRouter := RouterArea(5, adaptBufferFlits)

	baselineTotal := routers * baselinePerRouter
	adaptTotal := routers*adaptPerRouter +
		AdaptExtraPortsMM2*1e6 +
		RLControllersAreaUM2 +
		MuxArbLinkAreaUM2

	return AreaReport{
		BaselineNoCMM2:   baselineTotal / 1e6,
		AdaptNoCMM2:      adaptTotal / 1e6,
		RLControllersMM2: RLControllersAreaUM2 / 1e6,
		MuxArbLinksMM2:   MuxArbLinkAreaUM2 / 1e6,
		SavingVsBaseline: 1 - adaptTotal/baselineTotal,
	}
}

// Intel 45 nm metal stack (Section V-B.2).
type MetalLayer struct {
	Name         string
	WirePitchNM  float64
	DelayPSPerMM float64
}

// Metal layers available for NoC routing.
var (
	HighMetal         = MetalLayer{Name: "M7-M8", WirePitchNM: 560, DelayPSPerMM: 42}
	IntermediateMetal = MetalLayer{Name: "M4-M6", WirePitchNM: 280, DelayPSPerMM: 200}
)

// LinksPerTileEdge returns how many w-bit bidirectional links fit across a
// 1 mm tile edge on a layer, with half the wiring resources available for
// on-chip routing (two routing directions share each layer pair).
func LinksPerTileEdge(layer MetalLayer, linkBits int) int {
	wiresPerMM := 1e6 / layer.WirePitchNM / 2 // half available for routing
	wiresPerLink := float64(2 * linkBits)     // bidirectional
	return int(wiresPerMM * 2 / wiresPerLink) // two layers in the pair
}

// WiringReport is the Section V-B.2 accounting.
type WiringReport struct {
	HighMetalLinks         int // 256-bit bidir links per tile edge, M7-M8
	IntermediateMetalLinks int // M4-M6
	RequiredLinks          int // Adapt-NoC worst case per tile edge
	WithinBudget           bool
}

// CheckWiringBudget verifies the Adapt-NoC requirement (mesh + adaptable +
// concentration links: at most four 256-bit bidirectional links per tile
// edge) against the stack (paper: 2 on high metal + 7 on intermediate).
func CheckWiringBudget() WiringReport {
	hi := LinksPerTileEdge(HighMetal, 256)
	mid := LinksPerTileEdge(IntermediateMetal, 256)
	const required = 4
	return WiringReport{
		HighMetalLinks:         hi,
		IntermediateMetalLinks: mid,
		RequiredLinks:          required,
		WithinBudget:           required <= hi+mid,
	}
}

// Router stage delays in picoseconds (Section V-B.3, 45 nm, 5x5 router).
const (
	RCDelayPS  = 164.0
	VADelayPS  = 370.0
	SADelayPS  = 243.0
	STDelayPS  = 256.0
	MuxDelayPS = 102.0
	// Reversed quad-state repeaters add transmission-gate delay.
	ReversedRepeaterExtraPS = 45.0
)

// TimingReport is the Section V-B.3 accounting.
type TimingReport struct {
	MergedRCPS float64 // RC + input mux
	MergedSTPS float64 // ST + output mux
	CriticalPS float64 // the stage limiting frequency
	// MuxMergeSafe is the paper's claim: merged RC and ST stay under the
	// VA stage, so the muxes cost no frequency.
	MuxMergeSafe bool
	MaxClockGHz  float64
}

// RouterTiming evaluates the mux-merging optimization.
func RouterTiming() TimingReport {
	mergedRC := RCDelayPS + MuxDelayPS
	mergedST := STDelayPS + MuxDelayPS
	critical := VADelayPS
	for _, d := range []float64{mergedRC, mergedST, SADelayPS} {
		if d > critical {
			critical = d
		}
	}
	return TimingReport{
		MergedRCPS:   mergedRC,
		MergedSTPS:   mergedST,
		CriticalPS:   critical,
		MuxMergeSafe: mergedRC <= VADelayPS && mergedST <= VADelayPS,
		MaxClockGHz:  1000.0 / critical,
	}
}

// RL inference latency (Section V-B.3): one adder and one multiplier
// serialize the whole DQN forward pass.
const (
	multiplierPS = 800.0 // one 32-bit multiply at 45 nm
	adderPS      = 245.0
)

// RLInferenceNS returns the DQN forward-pass latency for the given layer
// sizes with minimal hardware (one adder, one multiplier).
func RLInferenceNS(layers []int) float64 {
	var macs float64
	for i := 0; i+1 < len(layers); i++ {
		macs += float64(layers[i] * layers[i+1])
	}
	return macs * (multiplierPS + adderPS) / 1000.0
}

// String implements fmt.Stringer.
func (a AreaReport) String() string {
	return fmt.Sprintf("baseline %.2f mm² | adapt-noc %.2f mm² (RL %.3f, mux/links %.3f) | saving %.1f%%",
		a.BaselineNoCMM2, a.AdaptNoCMM2, a.RLControllersMM2, a.MuxArbLinksMM2, 100*a.SavingVsBaseline)
}

// String implements fmt.Stringer.
func (w WiringReport) String() string {
	return fmt.Sprintf("budget: %d high-metal + %d intermediate links/edge, need %d (ok=%v)",
		w.HighMetalLinks, w.IntermediateMetalLinks, w.RequiredLinks, w.WithinBudget)
}

// String implements fmt.Stringer.
func (t TimingReport) String() string {
	return fmt.Sprintf("RC+mux %.0f ps, ST+mux %.0f ps, critical %.0f ps (VA) -> %.2f GHz, mux merge safe=%v",
		t.MergedRCPS, t.MergedSTPS, t.CriticalPS, t.MaxClockGHz, t.MuxMergeSafe)
}
