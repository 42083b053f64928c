package serve_test

import (
	"testing"

	"adaptnoc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/serve"
	"adaptnoc/internal/sim"
)

// keyConfig is the reference configuration the key tests perturb.
func keyConfig() adaptnoc.Config {
	return adaptnoc.Config{
		Design: adaptnoc.DesignAdaptNoC,
		Apps:   adaptnoc.DefaultMixed(0),
		Seed:   2021,
	}
}

func mustKey(t *testing.T, cfg adaptnoc.Config) string {
	t.Helper()
	key, err := serve.ConfigKey(cfg)
	if err != nil {
		t.Fatalf("ConfigKey: %v", err)
	}
	return key
}

// Semantically equal configurations must share a key: spelling defaults
// explicitly, or supplying the config over the wire with fields in any
// order, names the same simulation.
func TestConfigKeyCanonicalEquivalence(t *testing.T) {
	base := mustKey(t, keyConfig())

	explicit := keyConfig()
	explicit.EpochCycles = 50000 // the defaults, spelled out
	explicit.RL.Gamma = rl.DefaultDQNConfig().Gamma
	explicit.RL.Epsilon, explicit.RL.EpsilonSet = rl.DefaultDQNConfig().Epsilon, true
	if got := mustKey(t, explicit); got != base {
		t.Errorf("explicit defaults changed the key: %s vs %s", got, base)
	}

	// Knobs the selected design never reads must not influence the key:
	// the fabric's timing and bypass, the tabular agent and the DQN's
	// hyper-parameters exist only under the Adapt designs.
	baseline := keyConfig()
	baseline.Design = adaptnoc.DesignBaseline
	bkey := mustKey(t, baseline)
	ignored := baseline
	ignored.SetupCycles = 99
	ignored.NoInjectionBypass = true
	ignored.UseQTable = true
	ignored.RL.Gamma = 0.5 // only DesignAdaptNoC's DQN reads it
	if got := mustKey(t, ignored); got != bkey {
		t.Errorf("design-irrelevant knobs changed the key: %s vs %s", got, bkey)
	}

	// The same configuration arriving as wire JSON, fields deliberately
	// out of struct order.
	wire := []byte(`{
		"seed": 2021,
		"apps": [
			{"region": {"w": 4, "h": 8}, "profile": "bfs", "mcTiles": [0, 2, 32, 34]},
			{"profile": "canneal", "static": "cmesh", "region": {"x": 4, "y": 0, "w": 4, "h": 4}, "mcTiles": [4, 6]},
			{"profile": "ferret", "mcTiles": [36, 38], "region": {"y": 4, "x": 4, "w": 4, "h": 4}, "static": "cmesh"}
		],
		"design": "adapt-noc"
	}`)
	parsed, err := adaptnoc.ParseConfig(wire)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if got := mustKey(t, parsed); got != base {
		t.Errorf("wire config hashed differently: %s vs %s", got, base)
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	base := mustKey(t, keyConfig())

	seed := keyConfig()
	seed.Seed = 2022
	if mustKey(t, seed) == base {
		t.Error("different seeds produced the same key")
	}

	design := keyConfig()
	design.Design = adaptnoc.DesignBaseline
	if mustKey(t, design) == base {
		t.Error("different designs produced the same key")
	}

	eps := keyConfig()
	eps.RL.Epsilon, eps.RL.EpsilonSet = 0.25, true
	if mustKey(t, eps) == base {
		t.Error("different exploration rates produced the same key")
	}
}

func TestConfigKeyRejectsSharedAgent(t *testing.T) {
	cfg := keyConfig()
	cfg.RL.SharedAgent = rl.NewDQN(rl.DefaultDQNConfig(), sim.NewRNG(1))
	if _, err := serve.ConfigKey(cfg); err == nil {
		t.Fatal("ConfigKey accepted an in-process shared agent")
	}
}

func TestRequestKeyWindow(t *testing.T) {
	implicit := serve.Request{Config: keyConfig()}
	explicit := serve.Request{Config: keyConfig(), Cycles: serve.DefaultCycles}
	ki, err := serve.RequestKey(implicit)
	if err != nil {
		t.Fatal(err)
	}
	ke, err := serve.RequestKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Errorf("default and explicit windows hashed differently: %s vs %s", ki, ke)
	}
	longer := serve.Request{Config: keyConfig(), Cycles: 2 * serve.DefaultCycles}
	kl, err := serve.RequestKey(longer)
	if err != nil {
		t.Fatal(err)
	}
	if kl == ki {
		t.Error("different windows produced the same request key")
	}
}
