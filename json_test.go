package adaptnoc

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
)

func sampleConfig() Config {
	return Config{
		Design:      DesignAdaptNoC,
		Apps:        DefaultMixed(0),
		Seed:        2021,
		EpochCycles: 10000,
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	t.Parallel()
	cfg := sampleConfig()
	cfg.Apps[0].ShareMCs = 2
	cfg.Apps[1].Static = TorusTree
	cfg.RL.Train = true
	cfg.RL.Gamma = 0.8

	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(blob)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip changed config:\n got %+v\nwant %+v", back, cfg)
	}
	// Topologies and designs travel as names, not ints.
	s := string(blob)
	for _, want := range []string{`"design":"adapt-noc"`, `"static":"torus+tree"`, `"profile":"bfs"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("marshalled config missing %s:\n%s", want, s)
		}
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	t.Parallel()
	r := sampleResults()
	r.Apps[0].FinalKind = Torus
	r.Apps[0].Selections[int(Torus)] = 0.75
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseResults(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed results:\n got %+v\nwant %+v", back, r)
	}
}

// TestConfigValidateFieldNames proves every rejection names the offending
// field, so API clients can see what to fix.
func TestConfigValidateFieldNames(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		mod   func(*Config)
		field string
	}{
		{"bad design", func(c *Config) { c.Design = NumDesigns }, "design"},
		{"no apps", func(c *Config) { c.Apps = nil }, "apps"},
		{"unknown profile", func(c *Config) { c.Apps[0].Profile = "doom" }, "apps[0].profile"},
		{"empty region", func(c *Config) { c.Apps[1].Region.W = 0 }, "apps[1].region"},
		{"off-grid region", func(c *Config) { c.Apps[2].Region.X = 7 }, "apps[2].region"},
		{"MC outside region", func(c *Config) { c.Apps[1].MCTiles = []NodeID{0} }, "apps[1].mcTiles[0]"},
		{"overlap", func(c *Config) {
			c.Apps[2].Region = c.Apps[1].Region
			c.Apps[2].MCTiles = append([]NodeID(nil), c.Apps[1].MCTiles...)
		}, "apps[2].region"},
		{"negative budget", func(c *Config) { c.Apps[0].InstrBudget = -1 }, "apps[0].instrBudget"},
		{"negative epoch", func(c *Config) { c.EpochCycles = -5 }, "epochCycles"},
		{"VC count above the router's masks", func(c *Config) { c.VCsPerVNet = maxVCsPerVNet + 1 }, "vcsPerVNet"},
		{"epsilon range", func(c *Config) { c.RL.Epsilon, c.RL.EpsilonSet = 1.5, true }, "rl.epsilon"},
		{"gamma range", func(c *Config) { c.RL.Gamma = -0.1 }, "rl.gamma"},
		{"policy input size", func(c *Config) { c.RL.Pretrained = rl.NewNet([]int{2, 2}, sim.NewRNG(1)) }, "rl.pretrained"},
		{"policy action count", func(c *Config) { c.RL.Pretrained = rl.NewNet([]int{12, 9}, sim.NewRNG(1)) }, "rl.pretrained"},
	}
	for _, tc := range cases {
		cfg := sampleConfig()
		tc.mod(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted invalid config", tc.name)
		}
		fe, ok := err.(*FieldError)
		if !ok {
			t.Fatalf("%s: error %T is not a *FieldError: %v", tc.name, err, err)
		}
		if fe.Field != tc.field {
			t.Fatalf("%s: error names field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
		if fe.Hint == "" {
			t.Fatalf("%s: no remediation hint (%v)", tc.name, err)
		}
	}
	if err := sampleConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestParseConfigStrict(t *testing.T) {
	t.Parallel()
	if _, err := ParseConfig([]byte(`{"design":"baseline","apps":[{"profile":"bfs","region":{"x":0,"y":0,"w":4,"h":4}}],"turbo":true}`)); err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("unknown field not rejected by name: %v", err)
	}
	if _, err := ParseConfig([]byte(`{"design":"nope","apps":[]}`)); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := ParseConfig([]byte(`{"design":"baseline","apps":[{"profile":"bfs","region":{"x":0,"y":0,"w":4,"h":4}}]} {}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	cfg, err := ParseConfig([]byte(`{"design":"adapt-norl","seed":7,"apps":[{"profile":"bfs","region":{"x":0,"y":0,"w":4,"h":4},"static":"torus"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != DesignAdaptNoRL || cfg.Seed != 7 || cfg.Apps[0].Static != Torus {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
}

// Config keys that once set model constants no experiment varies (memory
// timing, the energy model, the DQN's fixed hyper-parameters, Shortcut's
// link budget, FTBY-PG's gating timing) are unknown fields now. The first
// two fragments are inputs that used to crash a run: a negative DRAM
// latency schedules an event in the past, a zero clock makes the energy
// NaN.
func TestParseConfigRejectsRemovedKnobs(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ key, fragment string }{
		{"memory", `"memory":{"l2LatencyCycles":8,"mcLatencyCycles":-100,"mcServiceCycles":2}`},
		{"power", `"power":{"clockGHz":0}`},
		{"dqn", `"rl":{"dqn":{"replaySize":1000}}`},
		{"shortcutLinksPerApp", `"shortcutLinksPerApp":2`},
		{"pgWakeCycles", `"pgWakeCycles":16`},
		{"pgIdleCycles", `"pgIdleCycles":10`},
	} {
		blob := `{"design":"adapt-noc","apps":[{"profile":"bfs","region":{"w":4,"h":4}}],` + tc.fragment + `}`
		if _, err := ParseConfig([]byte(blob)); err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("%s: ParseConfig error %v, want one naming the key", tc.key, err)
		}
	}
	// A policy whose shape the controller cannot drive used to pass and
	// then panic in the first forward pass.
	blob := `{"design":"adapt-noc","apps":[{"profile":"bfs","region":{"w":4,"h":4}}],` +
		`"rl":{"pretrained":{"sizes":[2,2],"weights":[[0,0,0,0]],"biases":[[0,0]]}}}`
	var fe *FieldError
	if _, err := ParseConfig([]byte(blob)); !errors.As(err, &fe) || fe.Field != "rl.pretrained" {
		t.Errorf("2x2 policy: ParseConfig error %v, want field rl.pretrained", err)
	}
}

// TestConfigSettableValues pins the wire surface: every JSON leaf of
// Config (apps and faults count as one each) is a value some experiment,
// driver or test sets. A new knob needs a caller and a line here.
func TestConfigSettableValues(t *testing.T) {
	t.Parallel()
	want := []string{
		"design", "apps", "width", "height", "seed", "epochCycles",
		"rl.pretrained", "rl.train", "rl.epsilon", "rl.epsilonSet", "rl.gamma",
		"noInjectionBypass", "vcsPerVNet", "setupCycles", "useQTable", "faults",
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" || !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+name+".", f.Type)
				continue
			}
			got = append(got, prefix+name)
		}
	}
	walk("", reflect.TypeOf(Config{}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("settable config values:\n got %q\nwant %q", got, want)
	}
}

// TestCanonicalEquivalence proves NewSim(cfg) and NewSim(cfg.Canonical())
// simulate identically, and that Canonical is idempotent.
func TestCanonicalEquivalence(t *testing.T) {
	t.Parallel()
	cfg := sampleConfig()
	canon := cfg.Canonical()
	if !reflect.DeepEqual(canon, canon.Canonical()) {
		t.Fatal("Canonical is not idempotent")
	}
	a, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSim(canon)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(20000)
	b.Run(20000)
	ra, rb := a.Results().String(), b.Results().String()
	if ra != rb {
		t.Fatalf("canonical config simulates differently:\n%s\nvs\n%s", ra, rb)
	}
}

// TestRunContext proves the context-aware runners complete identically to
// their plain counterparts and stop early on cancellation.
func TestRunContext(t *testing.T) {
	// Not parallel: it checks when the run loops notice cancellation.
	mk := func() *Sim {
		s, err := NewSim(Config{Design: DesignBaseline, Apps: DefaultMixed(0), Seed: 1, EpochCycles: 10000})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	a.Run(20000)
	if err := b.RunContext(context.Background(), 20000); err != nil {
		t.Fatal(err)
	}
	if ra, rb := a.Results().String(), b.Results().String(); ra != rb {
		t.Fatalf("RunContext diverged from Run:\n%s\nvs\n%s", ra, rb)
	}

	c := mk()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.RunContext(ctx, 1_000_000); err == nil {
		t.Fatal("cancelled RunContext returned nil")
	}
	if now := c.Kernel.Now(); now != 0 {
		t.Fatalf("cancelled RunContext advanced the clock to %d", now)
	}
	d, err := NewSim(Config{Design: DesignBaseline, Apps: DefaultMixed(100000), Seed: 1, EpochCycles: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunTo(ctx, 1_000_000, 0, nil); err == nil {
		t.Fatal("cancelled budgeted RunTo returned nil")
	}
	if now := d.Kernel.Now(); now != 0 {
		t.Fatalf("cancelled budgeted RunTo advanced the clock to %d", now)
	}
}
