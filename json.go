package adaptnoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/topology"
)

// This file is the package's wire format: Config and Results marshal to
// JSON (Design and Kind as their flag-style names, fields in lowerCamel),
// ParseConfig/ParseResults decode strictly, and Validate reports the first
// invalid field by its JSON path. The serving layer (internal/serve)
// builds its request/response bodies and its content-addressed cache keys
// from exactly this encoding.

// MarshalText implements encoding.TextMarshaler; designs travel as their
// flag-style names ("baseline", "adapt-noc").
func (d Design) MarshalText() ([]byte, error) {
	if d < DesignBaseline || d >= NumDesigns {
		return nil, fmt.Errorf("adaptnoc: cannot marshal invalid design %d", int(d))
	}
	return []byte(d.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. An empty string
// decodes to DesignBaseline (the zero value), so omitted JSON fields keep
// their Go-zero-value meaning.
func (d *Design) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*d = DesignBaseline
		return nil
	}
	got, err := ParseDesign(string(text))
	if err != nil {
		return err
	}
	*d = got
	return nil
}

// FieldError reports an invalid configuration field by its JSON path
// (e.g. "apps[1].region" or "rl.gamma"). Hint, when set, is a remediation
// suggestion — what to change, not just what is wrong — so a daemon can
// surface an actionable message to a client that never sees this code.
type FieldError struct {
	Field string
	Msg   string
	Hint  string
}

// Error implements error.
func (e *FieldError) Error() string {
	if e.Hint != "" {
		return fmt.Sprintf("adaptnoc: config field %s: %s (%s)", e.Field, e.Msg, e.Hint)
	}
	return fmt.Sprintf("adaptnoc: config field %s: %s", e.Field, e.Msg)
}

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// hint attaches a remediation suggestion and returns the error for
// chaining at the return site.
func (e *FieldError) hint(format string, args ...any) *FieldError {
	e.Hint = fmt.Sprintf(format, args...)
	return e
}

// Validate checks the configuration without building a simulation and
// returns a *FieldError naming the first offending field, or nil. It is
// stricter than NewSim: it also rejects regions that fall off the chip
// grid and out-of-range hyper-parameters, so a daemon can refuse a job
// before committing a worker to it.
func (c Config) Validate() error {
	if c.Design < DesignBaseline || c.Design >= NumDesigns {
		return fieldErrf("design", "unknown design %d", int(c.Design)).
			hint("choose one of baseline, oscar, shortcut, ftby, ftby-pg, adapt-norl, adapt-noc")
	}
	if len(c.Apps) == 0 {
		return fieldErrf("apps", "at least one application required").
			hint("add an app entry with a profile and a region, e.g. {\"profile\": \"blackscholes\", \"region\": {\"w\": 4, \"h\": 4}}")
	}
	if c.Width < 0 || c.Height < 0 || c.Width == 1 || c.Height == 1 ||
		c.Width > maxGridDim || c.Height > maxGridDim {
		return fieldErrf("width", "grid %dx%d unsupported", c.Width, c.Height).
			hint("use 0 for the default 8x8 chip or dimensions in [2,%d]", maxGridDim)
	}
	ncfg := netConfig(c.Design, c.Width, c.Height)
	decodes := newTraceDecodes(c.Apps)
	for i, a := range c.Apps {
		f := func(sub string) string { return fmt.Sprintf("apps[%d].%s", i, sub) }
		hasTrace := a.Trace != "" || len(a.TraceData) > 0
		switch {
		case hasTrace && a.Profile != "":
			return fieldErrf(f("profile"), "both profile %q and a trace set", a.Profile).
				hint("a spec is either synthetic (profile) or replayed (trace/traceData)")
		case !hasTrace && a.Profile == "":
			return fieldErrf(f("profile"), "missing profile").
				hint("pick a benchmark name from adaptnoc-sim -profiles, or replay a trace")
		case !hasTrace:
			if err := CheckProfile(a.Profile); err != nil {
				return fieldErrf(f("profile"), "unknown profile %q", a.Profile).
					hint("pick a benchmark name from adaptnoc-sim -profiles")
			}
		}
		r := a.Region
		if r.W <= 0 || r.H <= 0 {
			return fieldErrf(f("region"), "empty region %v", r).
				hint("give the region positive w and h tile counts")
		}
		if r.X < 0 || r.Y < 0 || r.X+r.W > ncfg.Width || r.Y+r.H > ncfg.Height {
			return fieldErrf(f("region"), "region %v outside the %dx%d grid", r, ncfg.Width, ncfg.Height).
				hint("shrink or move the region, or grow the chip with width/height")
		}
		for j, mc := range a.MCTiles {
			if mc < 0 || int(mc) >= ncfg.NumNodes() {
				return fieldErrf(fmt.Sprintf("apps[%d].mcTiles[%d]", i, j), "tile %d outside the chip", mc).
					hint("tile IDs are row-major in [0,%d)", ncfg.NumNodes())
			}
			if !r.Contains(noc.CoordOf(mc, ncfg.Width)) {
				return fieldErrf(fmt.Sprintf("apps[%d].mcTiles[%d]", i, j), "MC tile %d outside region %v", mc, r).
					hint("every MC must sit on one of its own app's tiles")
			}
		}
		if hasTrace {
			if a.InstrBudget != 0 {
				return fieldErrf(f("instrBudget"), "trace replay takes no instruction budget").
					hint("drop instrBudget; the trace itself bounds the run")
			}
			if a.TraceApp < 0 {
				return fieldErrf(f("traceApp"), "negative trace app index %d", a.TraceApp).
					hint("recorded apps are indexed 0..n-1 in recording order")
			}
			// The path form defers decoding to NewSim (only the submitting
			// client can read the file); inline data validates here so a
			// daemon can refuse a bad blob before committing a worker.
			if len(a.TraceData) > 0 {
				d, err := decodes.decode(a.TraceData)
				if err != nil {
					return fieldErrf(f("traceData"), "%v", err).
						hint("re-record with adaptnoc-sim -record-trace; blobs are not hand-editable")
				}
				tr := d.trace
				if a.TraceApp >= len(tr.Apps) {
					return fieldErrf(f("traceApp"), "trace has %d recorded apps, index %d", len(tr.Apps), a.TraceApp).
						hint("recorded apps are indexed 0..n-1 in recording order")
				}
				ta := &tr.Apps[a.TraceApp]
				if ta.W != r.W || ta.H != r.H {
					return fieldErrf(f("region"), "region %dx%d does not match the recorded %dx%d", r.W, r.H, ta.W, ta.H).
						hint("a replay may move the recorded region but not resize it")
				}
				if err := ta.FitsGrid(ncfg.Width, ncfg.Height); err != nil {
					return fieldErrf(f("traceData"), "%v", err).
						hint("replay on a chip at least as large as the recording")
				}
			}
		}
		if a.InstrBudget < 0 {
			return fieldErrf(f("instrBudget"), "negative budget %d", a.InstrBudget).
				hint("use 0 to run until the cycle limit")
		}
		if a.ShareMCs < 0 {
			return fieldErrf(f("shareMCs"), "negative share count %d", a.ShareMCs).
				hint("use 0 to disable MC sharing")
		}
		if a.Static < Mesh || a.Static >= topology.NumSelectable {
			return fieldErrf(f("static"), "invalid topology %d", int(a.Static)).
				hint("choose mesh, cmesh, torus, or tree")
		}
		for j := 0; j < i; j++ {
			if a.Region.Overlaps(c.Apps[j].Region) {
				return fieldErrf(f("region"), "region %v overlaps apps[%d] region %v", a.Region, j, c.Apps[j].Region).
					hint("applications need disjoint tile rectangles")
			}
		}
	}
	if c.EpochCycles < 0 {
		return fieldErrf("epochCycles", "negative epoch %d", c.EpochCycles).
			hint("use 0 for the paper's 50000-cycle epoch")
	}
	if c.VCsPerVNet < 0 {
		return fieldErrf("vcsPerVNet", "negative VC count %d", c.VCsPerVNet).
			hint("use 0 for the design's default VC count")
	}
	if c.VCsPerVNet > maxVCsPerVNet {
		return fieldErrf("vcsPerVNet", "%d VCs per virtual network, limit %d", c.VCsPerVNet, maxVCsPerVNet).
			hint("use 0 for the design's default VC count; a router holds at most %d VCs per input port", noc.MaxPortVCs)
	}
	if c.SetupCycles < 0 {
		return fieldErrf("setupCycles", "negative setup time %d", c.SetupCycles).
			hint("use 0 for the paper's 14-cycle setup")
	}
	if c.RL.EpsilonSet && (c.RL.Epsilon < 0 || c.RL.Epsilon > 1) {
		return fieldErrf("rl.epsilon", "exploration rate %v outside [0,1]", c.RL.Epsilon).
			hint("omit epsilon/epsilonSet for the paper's anneal schedule")
	}
	if c.RL.Gamma < 0 || c.RL.Gamma > 1 {
		return fieldErrf("rl.gamma", "discount factor %v outside [0,1]", c.RL.Gamma).
			hint("omit gamma for the paper's default")
	}
	if n := c.RL.Pretrained; n != nil && (len(n.Sizes) < 2 ||
		n.Sizes[0] != rl.StateSize || n.Sizes[len(n.Sizes)-1] != rl.NumActions) {
		return fieldErrf("rl.pretrained", "network shape %v does not map %d state inputs to %d actions",
			n.Sizes, rl.StateSize, rl.NumActions).
			hint("use weights from adaptnoc-train, whose sizes run %d,...,%d", rl.StateSize, rl.NumActions)
	}
	if len(c.Faults) > fault.MaxEvents {
		return fieldErrf("faults", "schedule has %d events, limit %d", len(c.Faults), fault.MaxEvents).
			hint("split enormous campaigns across runs")
	}
	for i := range c.Faults {
		if ce := c.Faults[i].Check(ncfg.NumNodes()); ce != nil {
			e := fieldErrf(fmt.Sprintf("faults[%d].%s", i, ce.Field), "%s", ce.Msg)
			if ce.Hint != "" {
				e = e.hint("%s", ce.Hint)
			}
			return e
		}
	}
	return nil
}

// decodeStrict decodes one JSON value, rejecting unknown fields (typoed
// field names should fail loudly, not silently fall back to defaults) and
// trailing garbage.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// ParseConfig decodes and validates a JSON simulation configuration.
// Unknown fields are rejected; validation errors name the offending field.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := decodeStrict(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("adaptnoc: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ParseResults decodes a JSON Results document (the inverse of
// json.Marshal on Results — what adaptnoc-sim -json and the serving API
// emit).
func ParseResults(data []byte) (Results, error) {
	var res Results
	if err := decodeStrict(data, &res); err != nil {
		return Results{}, fmt.Errorf("adaptnoc: parsing results: %w", err)
	}
	return res, nil
}
