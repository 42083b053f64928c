package train

// Training checkpoints: the agent's full learning state plus the number of
// completed episodes. Everything else an episode needs — the curriculum
// entry, the per-episode seed, the epsilon anneal — is a pure function of
// that counter and the Options, so a resumed run replays the exact
// trajectory the uninterrupted run would have taken.
//
// Saves form a rolling snap.Chain like the simulation checkpoints: a full
// blob first (and after every maxChain frames), delta frames in between.
// Agent weights churn densely between episodes, so training deltas win
// less than simulation deltas do, but the replay buffer's surviving
// entries and the unchanged target net still COPY, and the chain keeps
// every episode boundary recoverable for the cost of appends.

import (
	"fmt"

	"adaptnoc/internal/rl"
	"adaptnoc/internal/snap"
)

// maxChain bounds the delta log length before a rebase.
const maxChain = 16

// agentSections is the checkpoint body: the episode counter, then the
// agent's learning state, written over the storage of a retired section.
func agentSections(retired snap.DeltaSection, agent *rl.DQN, episode int) []snap.DeltaSection {
	var tw snap.Writer
	tw.ResetWith(retired.Body, retired.Parts)
	tw.Uvarint(uint64(episode))
	agent.Snapshot(&tw)
	return []snap.DeltaSection{{Name: "train", Body: tw.Bytes(), Parts: tw.Parts()}}
}

// loadCheckpoint overlays a state Train saved onto an agent
// constructed with the same configuration and returns the number of
// episodes already completed, from the newest state the chain intactly
// reaches. A missing file passes through os.IsNotExist so callers can
// treat it as a fresh start.
func loadCheckpoint(path string, agent *rl.DQN) (int, error) {
	blob, err := snap.ReadChain(path)
	if err != nil {
		return 0, err
	}
	r, err := snap.Open(blob)
	if err != nil {
		return 0, err
	}
	tr, err := r.Section("train")
	if err != nil {
		return 0, err
	}
	n, err := tr.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > 1<<20 {
		return 0, fmt.Errorf("train: implausible episode counter %d", n)
	}
	if err := agent.Restore(tr); err != nil {
		return 0, err
	}
	if err := tr.Done(); err != nil {
		return 0, err
	}
	if err := r.Done(); err != nil {
		return 0, err
	}
	return int(n), nil
}
