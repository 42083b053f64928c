// Package train is the offline DQN training harness of Section III-E: a
// single agent (prediction + target network + experience replay) gathers
// experience across training episodes that span different subNoC sizes
// (2x4 … 8x8) and a wide range of application phases, exactly as the paper
// prescribes for robustness. The trained prediction network is what the
// deployed per-subNoC RL controllers run (cmd/adaptnoc-train writes it as
// JSON; internal/rl embeds a copy as the default policy).
package train

import (
	"fmt"
	"io"
	"os"

	"adaptnoc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
	"adaptnoc/internal/traffic"
)

// Episode is one training run: an application alone in a region, or the
// full mixed workload when Mixed is set.
type Episode struct {
	Profile string
	Region  adaptnoc.Region
	Mixed   bool
}

// Curriculum returns the paper's training configurations: network sizes
// 2x4, 4x4, 4x6, 4x8, and 8x8, each paired with applications whose
// class matches the paper's mapping (CPU codes on small regions, GPU codes
// on large ones, both on the middle size).
func Curriculum() []Episode {
	var eps []Episode
	add := func(reg adaptnoc.Region, names ...string) {
		for _, n := range names {
			eps = append(eps, Episode{Profile: n, Region: reg})
		}
	}
	add(adaptnoc.Region{W: 2, H: 4}, "blackscholes", "canneal", "x264")
	add(adaptnoc.Region{W: 4, H: 4}, "swaptions", "ferret", "fluidanimate", "bodytrack")
	add(adaptnoc.Region{W: 4, H: 6}, "canneal", "nw", "hotspot")
	add(adaptnoc.Region{W: 4, H: 8}, "kmeans", "bfs", "backprop", "gaussian")
	add(adaptnoc.Region{W: 8, H: 8}, "bfs", "heartwall", "kmeans")
	// Concurrent-execution episodes: three subNoCs at once, shared agent.
	eps = append(eps,
		Episode{Mixed: true, Profile: "bfs"},
		Episode{Mixed: true, Profile: "kmeans"},
	)
	return eps
}

// Options tune the training run.
type Options struct {
	Rounds        int   // passes over the curriculum
	EpisodeCycles int64 // simulated cycles per episode
	EpochCycles   int   // control epoch during training
	Seed          uint64
	// EpsilonStart/End anneal exploration across the whole run.
	EpsilonStart, EpsilonEnd float64
	// SweepIterations is the number of extra minibatch-SGD iterations run
	// against the replay buffer after every episode — the actual offline
	// training; the in-episode updates mainly keep the buffer fresh.
	SweepIterations int
	// Gamma overrides the discount factor when > 0 (Fig. 18's sweep
	// trains one policy per gamma).
	Gamma float64
	// Log receives progress lines (nil discards).
	Log io.Writer
	// CheckpointPath, when set, persists the agent and episode counter
	// every CheckpointEvery episodes (and when the run stops), so an
	// interrupted training run can continue instead of starting over.
	CheckpointPath string
	// CheckpointEvery is the save cadence in episodes (<= 0 means 1).
	CheckpointEvery int
	// Resume continues from CheckpointPath when the file exists. The
	// resumed trajectory is identical to an uninterrupted run: every
	// episode's seed and epsilon are pure functions of the episode counter.
	Resume bool
	// MaxEpisodes caps how many episodes this invocation runs (0 = all
	// remaining) — with checkpointing it bounds a session without losing
	// work.
	MaxEpisodes int
}

// DefaultOptions trains long enough for a stable policy in a few minutes.
func DefaultOptions() Options {
	return Options{
		Rounds:          5,
		EpisodeCycles:   250000,
		EpochCycles:     10000,
		Seed:            77,
		EpsilonStart:    0.6,
		EpsilonEnd:      0.1,
		SweepIterations: 400,
	}
}

// Train runs the curriculum and returns the trained agent.
func Train(o Options) (*rl.DQN, error) {
	cfg := rl.DefaultDQNConfig()
	// Offline training tolerates — and converges much faster with — a
	// larger step size than the deployment-grade 1e-4 the paper quotes
	// for on-line fine-tuning stability. A deeper replay keeps the rare
	// but decisive experiences (e.g. concentration under a saturating
	// phase) alive across the whole curriculum.
	cfg.LearningRate = 1e-3
	cfg.ReplaySize = 4000
	if o.Gamma > 0 {
		cfg.Gamma = o.Gamma
	}
	agent := rl.NewDQN(cfg, sim.NewRNG(o.Seed))

	eps := Curriculum()
	total := o.Rounds * len(eps)
	start := 0
	if o.Resume && o.CheckpointPath != "" {
		switch n, err := loadCheckpoint(o.CheckpointPath, agent); {
		case err == nil:
			start = n
		case os.IsNotExist(err):
			// No checkpoint yet: a fresh run.
		default:
			return nil, fmt.Errorf("train: resuming from %s: %w", o.CheckpointPath, err)
		}
	}
	every := o.CheckpointEvery
	if every <= 0 {
		every = 1
	}

	// The loop is driven by a single global episode counter so a resumed
	// run lands on the identical curriculum entry, seed, and epsilon the
	// uninterrupted run would have used.
	saved := start
	n := start
	var chain snap.Chain
	src := new(snap.SectionSource)
	src.Walk = func() ([]snap.DeltaSection, error) { return agentSections(src.Reuse("train"), agent, n), nil }
	save := func() error { return chain.Save(o.CheckpointPath, maxChain, src) }
	for n < total {
		if o.MaxEpisodes > 0 && n-start >= o.MaxEpisodes {
			break
		}
		n++
		ep := eps[(n-1)%len(eps)]
		// Linear epsilon anneal across the whole run.
		frac := float64(n-1) / float64(total-1)
		agent.Cfg.Epsilon = o.EpsilonStart + (o.EpsilonEnd-o.EpsilonStart)*frac

		if err := runEpisode(agent, ep, o, uint64(n)); err != nil {
			return nil, fmt.Errorf("train: episode %d (%s %v): %w", n, ep.Profile, ep.Region, err)
		}
		var td float64
		for it := 0; it < o.SweepIterations; it++ {
			td = agent.TrainIteration()
		}
		if o.Log != nil {
			fmt.Fprintf(o.Log, "episode %3d/%d %-13s %v eps=%.2f replay=%d td=%.3g\n",
				n, total, ep.Profile, ep.Region, agent.Cfg.Epsilon, agent.Replay.Len(), td)
		}
		if o.CheckpointPath != "" && n-saved >= every {
			if err := save(); err != nil {
				return nil, fmt.Errorf("train: checkpointing: %w", err)
			}
			saved = n
		}
	}
	if o.CheckpointPath != "" && n > saved {
		if err := save(); err != nil {
			return nil, fmt.Errorf("train: checkpointing: %w", err)
		}
	}
	agent.Cfg.Epsilon = o.EpsilonEnd
	return agent, nil
}

// runEpisode executes one training simulation with the shared agent.
func runEpisode(agent *rl.DQN, ep Episode, o Options, salt uint64) error {
	if _, ok := traffic.ByName(ep.Profile); !ok {
		return fmt.Errorf("unknown profile %q", ep.Profile)
	}
	apps := []adaptnoc.AppSpec{{
		Profile: ep.Profile,
		Region:  ep.Region,
		MCTiles: adaptnoc.BlockMCs(ep.Region),
	}}
	if ep.Mixed {
		apps = adaptnoc.MixedWorkload(ep.Profile, "canneal", "ferret", 0)
	}
	s, err := adaptnoc.NewSim(adaptnoc.Config{
		Design:      adaptnoc.DesignAdaptNoC,
		Apps:        apps,
		Seed:        o.Seed*1315423911 + salt,
		EpochCycles: o.EpochCycles,
		RL:          adaptnoc.RLOptions{SharedAgent: agent, Train: true},
	})
	if err != nil {
		return err
	}
	s.Run(adaptnoc.Cycle(o.EpisodeCycles))
	return nil
}
