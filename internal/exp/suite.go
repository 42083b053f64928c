package exp

import (
	"fmt"
	"strings"

	"adaptnoc"
)

// SuiteParams selects which evaluation units a suite runs and the knobs
// that shape individual units. It is the declarative half of a suite — the
// cost/seed knobs live in Options — and both halves have stable JSON
// forms, so a coordinator can ship a suite to another process and obtain
// byte-identical tables (see internal/fleet).
type SuiteParams struct {
	// Figs selects figures by key: 7-19, area, wiring, timing, chars,
	// ablation, switching, faults, or "all". Empty means "all".
	Figs []string `json:"figs,omitempty"`
	// Quick selects the reduced-fidelity variants of units that have one
	// (Fig16's app list, chars' window default).
	Quick bool `json:"quick,omitempty"`
	// FaultCounts are the fault counts for the faults unit (nil = 0,2,4,8).
	FaultCounts []int `json:"faultCounts,omitempty"`
	// CharCycles is the measurement window for the chars unit (0 = 60000,
	// or 20000 with Quick).
	CharCycles adaptnoc.Cycle `json:"charCycles,omitempty"`
}

// Unit is one independently runnable batch of a suite: a key (as accepted
// by -fig), whether it simulates through the evalConfig seam (Local units
// either run on the raw network substrate or are closed-form tables —
// nothing a remote evaluator could execute), and the run body.
type Unit struct {
	Key   string
	Local bool
	Run   func(Options) ([]Table, error)
}

// suiteFaultCounts applies the FaultCounts default.
func (p SuiteParams) suiteFaultCounts() []int {
	if len(p.FaultCounts) == 0 {
		return []int{0, 2, 4, 8}
	}
	return p.FaultCounts
}

// suiteCharCycles applies the CharCycles default.
func (p SuiteParams) suiteCharCycles() adaptnoc.Cycle {
	if p.CharCycles > 0 {
		return p.CharCycles
	}
	if p.Quick {
		return 20000
	}
	return 60000
}

// suiteKeys are every key Units accepts, in unit order (the mixed batch
// serves figures 7 and 10-13).
var suiteKeys = []string{
	"7", "10", "11", "12", "13",
	"8", "9", "14", "15", "16", "17", "18", "19",
	"switching", "faults", "ablation", "chars",
	"area", "wiring", "timing",
	"all",
}

// Units resolves the suite's figure selection into the ordered list of
// units to run. The order is fixed — it is the emission order of the
// merged table output, part of the byte-identity contract. Unknown keys
// are an error.
func Units(p SuiteParams) ([]Unit, error) {
	want := map[string]bool{}
	figs := p.Figs
	if len(figs) == 0 {
		figs = []string{"all"}
	}
	for _, f := range figs {
		k := strings.TrimSpace(f)
		if k == "" {
			continue
		}
		ok := false
		for _, known := range suiteKeys {
			if k == known {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("exp: unknown figure %q (want %s)", k, strings.Join(suiteKeys, ", "))
		}
		want[k] = true
	}
	all := want["all"]
	sel := func(k string) bool { return all || want[k] }
	one := func(t Table, err error) ([]Table, error) {
		return []Table{t}, err
	}

	units := []Unit{
		{Key: "mixed", Run: func(o Options) ([]Table, error) {
			m, err := RunMixed(o, "bfs", "canneal", "ferret")
			if err != nil {
				return nil, err
			}
			var ts []Table
			if sel("7") {
				ts = append(ts, m.Fig7())
			}
			if sel("10") {
				ts = append(ts, m.Fig10())
			}
			if sel("11") {
				ts = append(ts, m.Fig11())
			}
			if sel("12") {
				ts = append(ts, m.Fig12())
			}
			if sel("13") {
				ts = append(ts, m.Fig13())
			}
			return ts, nil
		}},
		{Key: "8", Run: func(o Options) ([]Table, error) { return one(Fig8(o)) }},
		{Key: "9", Run: func(o Options) ([]Table, error) { return one(Fig9(o)) }},
		{Key: "14", Run: func(o Options) ([]Table, error) { return one(Fig14(o)) }},
		{Key: "15", Run: func(o Options) ([]Table, error) { return one(Fig15(o)) }},
		{Key: "16", Run: func(o Options) ([]Table, error) { return one(Fig16(o, p.Quick)) }},
		{Key: "17", Run: func(o Options) ([]Table, error) { return one(Fig17(o)) }},
		{Key: "18", Run: func(o Options) ([]Table, error) { return one(Fig18(o)) }},
		{Key: "19", Run: func(o Options) ([]Table, error) { return one(Fig19(o)) }},
		{Key: "switching", Local: true, Run: func(o Options) ([]Table, error) { return one(TabSwitching(o.Parallelism)) }},
		{Key: "faults", Run: func(o Options) ([]Table, error) { return one(RunFaults(o, p.suiteFaultCounts())) }},
		{Key: "ablation", Run: func(o Options) ([]Table, error) { return one(Ablations(o)) }},
		{Key: "chars", Local: true, Run: func(o Options) ([]Table, error) {
			return one(CharacterizeTopologies(p.suiteCharCycles(), o.Seed, o.Parallelism))
		}},
		{Key: "area", Local: true, Run: func(Options) ([]Table, error) { return []Table{TabArea()}, nil }},
		{Key: "wiring", Local: true, Run: func(Options) ([]Table, error) { return []Table{TabWiring()}, nil }},
		{Key: "timing", Local: true, Run: func(Options) ([]Table, error) { return []Table{TabTiming()}, nil }},
	}

	selected := units[:0:0]
	for _, u := range units {
		take := sel(u.Key)
		if u.Key == "mixed" {
			take = sel("7") || sel("10") || sel("11") || sel("12") || sel("13")
		}
		if take {
			selected = append(selected, u)
		}
	}
	return selected, nil
}

// RunSuite runs the selected units in order and returns every table. It is
// the one entry point shared by the adaptnoc-experiments CLI and the fleet
// coordinator: any two callers handing it equal Options and SuiteParams
// get byte-identical tables, whether evaluation happens in-process or
// through Options.Eval.
func RunSuite(o Options, p SuiteParams) ([]Table, error) {
	units, err := Units(p)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, u := range units {
		ts, err := u.Run(o)
		if err != nil {
			return nil, fmt.Errorf("exp: unit %s: %w", u.Key, err)
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}
