package adaptnoc_test

// The checkpoint keystone: checkpoint a run mid-flight, restore the blob
// as a fresh process would (from the bytes alone), run both to the same
// cycle, and require byte-identical results — for every design point, for
// an RL run checkpointed mid-epoch, and across a file round-trip. The
// decoder is additionally fuzzed: truncated, corrupted, or wrong-version
// blobs must error, never panic.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptnoc"
	"adaptnoc/internal/fabric"
	"adaptnoc/internal/fault"
	"adaptnoc/internal/noc"
	"adaptnoc/internal/rl"
	"adaptnoc/internal/sim"
	"adaptnoc/internal/snap"
)

// chkConfig is the mixed workload at reduced epoch size, so a checkpoint
// mid-run lands several epochs in under the Adapt designs.
func chkConfig(d adaptnoc.Design) adaptnoc.Config {
	return adaptnoc.Config{
		Design:      d,
		Apps:        adaptnoc.DefaultMixed(0),
		Seed:        1234,
		EpochCycles: 10000,
	}
}

func resultsJSON(t testing.TB, r adaptnoc.Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resumeByteIdentical checkpoints cfg at cycle mid, restores the blob in a
// subtest (from the bytes alone, as a fresh process would), runs both the
// original and the restored simulation to cycle total, and requires their
// results to be byte-identical to an uninterrupted run.
func resumeByteIdentical(t *testing.T, cfg adaptnoc.Config, mid, total adaptnoc.Cycle) {
	t.Helper()

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
		t.Fatalf("checkpoint at cycle %d: %v", mid, err)
	}

	// The restore sees only the blob — the process boundary in miniature.
	t.Run("resume", func(t *testing.T) {
		r, err := adaptnoc.RestoreSim(blob)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if now := r.Kernel.Now(); now != mid {
			t.Fatalf("restored clock at cycle %d, checkpointed at %d", now, mid)
		}
		// A restored simulation re-checkpoints to the identical blob: the
		// encoding is canonical, not an artifact of construction history.
		blob2, err := r.Checkpoint()
		if err != nil {
			t.Fatalf("re-checkpoint: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Errorf("re-checkpoint differs: %d vs %d bytes", len(blob), len(blob2))
		}
		r.Run(total - mid)
		if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
			t.Errorf("resumed results differ from uninterrupted run:\n got %s\nwant %s", got, want)
		}
	})

	// Checkpointing is a pure read: the original continues unperturbed.
	s.Run(total - mid)
	if got := resultsJSON(t, s.Results()); !bytes.Equal(got, want) {
		t.Errorf("checkpointed-then-continued results differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

func TestCheckpointResumeByteIdenticalAllDesigns(t *testing.T) {
	t.Parallel()
	for d := adaptnoc.DesignBaseline; d < adaptnoc.NumDesigns; d++ {
		t.Run(d.String(), func(t *testing.T) {
			// 13000 is mid-epoch (epochs land at 10000, 20000, ...).
			resumeByteIdentical(t, chkConfig(d), 13000, 30000)
		})
	}
}

func TestCheckpointMidEpochRLTraining(t *testing.T) {
	t.Parallel()
	cfg := chkConfig(adaptnoc.DesignAdaptNoC)
	cfg.EpochCycles = 5000
	cfg.RL.Train = true
	// 12500 sits between epoch boundaries, with the DQN agents already
	// holding replay experience and updated weights.
	t.Run("dqn", func(t *testing.T) { resumeByteIdentical(t, cfg, 12500, 30000) })

	qcfg := cfg
	qcfg.UseQTable = true
	t.Run("qtable", func(t *testing.T) { resumeByteIdentical(t, qcfg, 12500, 30000) })
}

// TestRestoreAfterEveryTopologyPair walks a mesh subNoC through each
// ordered pair of Kinds, one reconfiguration between 2000-cycle runs, on
// both Adapt designs. The tree topologies grow routers past the Adapt port
// count and ports are never removed, so a router's port count is history,
// not a function of the current topology: restore must rebuild it from the
// blob. checkpoint∘restore is the identity, the restored twin stays in
// lockstep, and a chained delta frame applied to the base reproduces the
// full blob.
func TestRestoreAfterEveryTopologyPair(t *testing.T) {
	t.Parallel()
	kinds := []adaptnoc.Kind{adaptnoc.Mesh, adaptnoc.CMesh, adaptnoc.Torus, adaptnoc.Tree, adaptnoc.TorusTree}
	for _, d := range []adaptnoc.Design{adaptnoc.DesignAdaptNoRL, adaptnoc.DesignAdaptNoC} {
		for _, from := range kinds {
			for _, to := range kinds {
				t.Run(fmt.Sprintf("%v/%v-%v", d, from, to), func(t *testing.T) {
					s, err := adaptnoc.NewSim(adaptnoc.Config{
						Design: d,
						Apps:   []adaptnoc.AppSpec{{Profile: "ferret", Region: adaptnoc.Region{W: 4, H: 4}}},
						Seed:   7,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []adaptnoc.Kind{from, to} {
						s.Run(2000)
						if err := s.Reconfigure(0, k); err != nil {
							t.Fatal(err)
						}
					}
					s.Run(2000)
					base, err := s.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					r, err := adaptnoc.RestoreSim(base)
					if err != nil {
						t.Fatalf("restore: %v", err)
					}
					if again, err := r.Checkpoint(); err != nil || !bytes.Equal(again, base) {
						t.Fatalf("re-checkpoint differs from the restored blob (err %v)", err)
					}
					s.Run(3000)
					r.Run(3000)
					frame, err := s.CheckpointDeltaChained()
					if err != nil {
						t.Fatal(err)
					}
					want, err := r.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if full, err := s.Checkpoint(); err != nil || !bytes.Equal(full, want) {
						t.Fatalf("restored twin diverged after 3000 cycles (err %v)", err)
					}
					if got, err := snap.ApplyChain(base, frame); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("base + delta frame differs from the full blob (err %v)", err)
					}
				})
			}
		}
	}
}

// TestCheckpointMidManualSwitch checkpoints a manual Sim.Reconfigure at
// each stage of the protocol — notification wave, drain, Ts setup — and
// requires the restored twin to finish the switch and stay in lockstep.
// The switch runs as descriptor events, the same as the controller's.
func TestCheckpointMidManualSwitch(t *testing.T) {
	t.Parallel()
	cfg := adaptnoc.Config{
		Design:      adaptnoc.DesignAdaptNoRL,
		Apps:        []adaptnoc.AppSpec{{Profile: "canneal", Region: adaptnoc.Region{W: 4, H: 4}}},
		Seed:        9,
		EpochCycles: 1 << 30, // manual control only
	}
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3000)
	if err := s.Reconfigure(0, adaptnoc.Torus); err != nil {
		t.Fatal(err)
	}
	sn := s.Fabric.SubNoCs()[0]
	blobs := map[fabric.SubNoCState][]byte{}
	for sn.State() != fabric.StateActive {
		if st := sn.State(); blobs[st] == nil {
			blob, err := s.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint while %v: %v", st, err)
			}
			blobs[st] = blob
		}
		s.Run(1)
	}
	const end = 6000
	s.Run(end - s.Kernel.Now())
	want := resultsJSON(t, s.Results())
	for _, st := range []fabric.SubNoCState{fabric.StateNotifying, fabric.StateDraining, fabric.StateSettingUp} {
		if blobs[st] == nil {
			t.Fatalf("switch never observed in state %v", st)
		}
		r, err := adaptnoc.RestoreSim(blobs[st])
		if err != nil {
			t.Fatalf("restore while %v: %v", st, err)
		}
		r.Run(end - r.Kernel.Now())
		if got := r.Fabric.SubNoCs()[0]; got.State() != fabric.StateActive || got.Kind != adaptnoc.Torus {
			t.Fatalf("restored while %v: subNoC %v on %v at cycle %d", st, got.State(), got.Kind, end)
		}
		if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
			t.Errorf("restored while %v: results differ from the uninterrupted switch", st)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	t.Parallel()
	cfg := chkConfig(adaptnoc.DesignAdaptNoC)
	ref, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(25000)
	want := resultsJSON(t, ref.Results())

	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(11000)
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := (&adaptnoc.ChainWriter{Path: path}).Save(s); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	r, err := adaptnoc.RestoreSimFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(14000)
	if got := resultsJSON(t, r.Results()); !bytes.Equal(got, want) {
		t.Errorf("file round-trip results differ:\n got %s\nwant %s", got, want)
	}
}

func TestCheckpointRejectsSharedAgent(t *testing.T) {
	t.Parallel()
	cfg := chkConfig(adaptnoc.DesignAdaptNoC)
	cfg.RL.SharedAgent = rl.NewDQN(rl.DefaultDQNConfig(), sim.NewRNG(1))
	cfg.RL.Train = true
	s, err := adaptnoc.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a shared-agent simulation did not error")
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly. Step through offsets rather
	// than testing all of them: the blob is tens of kilobytes.
	for cut := 0; cut < len(blob); cut += 1 + cut/3 {
		if _, err := adaptnoc.RestoreSim(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes restored successfully", cut, len(blob))
		}
	}
}

// pinnedBodies is the wire format in 18 hashes: per configuration, the
// SHA-256 of the uncompressed checkpoint body minus its config section at
// cycle 2000 (a full Checkpoint) and at cycle 3000 (the base plus one
// CheckpointDeltaChained frame, applied). Every layer's field order, every
// count and every canonical sort feeds them, so a change here is a format
// change whatever else still passes.
var pinnedBodies = map[string][2]string{
	"baseline": {
		"ed8b20267b1584414dfaaa12c343c3bf0a2d284a2a504057ab69f1deb0fb81e6",
		"0d7dc895b8937ddb2d46aa2026fd3bac4f75721cd13f0839c589bad48207b4bb",
	},
	"oscar": {
		"bfad66619b969028d40fbd6925bfa04776cbcf0bd474f10d4164cf9e0e7a8606",
		"ed204427102dbf7993a3526df379c62998f8110e9441c3b4f0a520ae79baa127",
	},
	"shortcut": {
		"a8874777cfb1f2dd1bdf1536c6f1c381dd5096a86988111e105af0b4385da9fd",
		"45d3775c80212f44a4b03cce3b52167cf2d50b32b670842471a88b1f6f82a253",
	},
	"ftby": {
		"191308220e078134ecb6e0ae7d3da4ea4bf29d3a820f3129cbd641de4ff92bd2",
		"4adc01ce6b4f9aa6242c14079fffd46f9613d2340c968dec8e055616c4433b38",
	},
	"ftby-pg": {
		"0c7e03189150be215d6c92377211ee516ae5f3f8ea20bfa42c7de079368e985d",
		"e36bee1f911c32cc543168dc8efbb6717f61c563c5572c5bc67145398a71cc24",
	},
	"adapt-norl": {
		"3ae1fead3006073d31e052f74ebe888aeeb8f4f62aff3350f7b39b4bf15ab82a",
		"bac698395bb7cb9d38b716ff09a589757f94aa7a812fb7bd1136e5db8320c5ea",
	},
	"adapt-noc": {
		"414e9aa58448fed6fab19e0f2783f04f2dddc490ee3c62c09d3749b4d12aa1d2",
		"da4f36416218195c8979e6fa1ba91ed68bf18ab58defceafcbceee8b17aa0cae",
	},
	"faulted": {
		"885e1dc7eb012aaed8deda8a9a7697655856fd5dd46996342fea031decda73a4",
		"24bef0a2fdeddd8786ecc893fd8047dec21d552041c54e0013f8fe530a35a703",
	},
	"trace-replay": {
		"2f5a97f3c7039163eb1ff36f3c77a7441e1d6d89b6cce90c105236b628631739",
		"385f7664e4257732dd9dc9091237ec6c4fbf4027da9529a301e28889e7fd6132",
	},
}

// stateHash hashes a sealed blob's body without its config section (the
// config is JSON, and its encoding is not what this table pins).
func stateHash(t *testing.T, blob []byte) string {
	t.Helper()
	body, err := snap.OpenBody(blob)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := snap.SplitSections(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) == 0 || secs[0].Name != "config" {
		t.Fatalf("body does not open with the config section")
	}
	sum := sha256.Sum256(snap.JoinSectionsInto(nil, secs[1:]))
	return hex.EncodeToString(sum[:])
}

func TestCheckpointBodyPinned(t *testing.T) {
	t.Parallel()
	type pinCase struct {
		name string
		sim  func() *adaptnoc.Sim
	}
	newSim := func(cfg adaptnoc.Config) func() *adaptnoc.Sim {
		return func() *adaptnoc.Sim {
			s, err := adaptnoc.NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	var cases []pinCase
	for d := adaptnoc.DesignBaseline; d < adaptnoc.NumDesigns; d++ {
		cases = append(cases, pinCase{d.String(), newSim(chkConfig(d))})
	}
	// A link fault struck and draining at the first point, repaired by the
	// second; a trace replay mid-stream at both.
	faulted := chkConfig(adaptnoc.DesignAdaptNoC)
	faulted.Faults = []fault.Event{{Cycle: 1500, Kind: fault.KindLink, Router: 25, Port: noc.PortEast, Repair: 1000}}
	cases = append(cases,
		pinCase{"faulted", newSim(faulted)},
		pinCase{"trace-replay", func() *adaptnoc.Sim {
			apps, w, h, err := adaptnoc.TraceWorkload(recordMixedTrace(t, 6000))
			if err != nil {
				t.Fatal(err)
			}
			cfg := chkConfig(adaptnoc.DesignBaseline)
			cfg.Width, cfg.Height, cfg.Apps = w, h, apps
			return newSim(cfg)()
		}})

	got := make(map[string][2]string, len(cases))
	var table strings.Builder
	for _, c := range cases {
		s := c.sim()
		s.Run(2000)
		base, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s.Run(1000)
		frame, err := s.CheckpointDeltaChained()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tip, err := snap.ApplyChain(base, frame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = [2]string{stateHash(t, base), stateHash(t, tip)}
		fmt.Fprintf(&table, "\t%q: {\n\t\t%q,\n\t\t%q,\n\t},\n", c.name, got[c.name][0], got[c.name][1])
	}
	for _, c := range cases {
		if got[c.name] != pinnedBodies[c.name] {
			t.Fatalf("%s: checkpoint body bytes moved — bump snap.Version if this was intended, then replace pinnedBodies with:\n%s",
				c.name, table.String())
		}
	}
}

// TestRestoreSurvivesBodyMutations attacks the layer decoders themselves.
// TestRestoreRejectsTruncation and FuzzRestoreSim's seeds mutate the sealed
// blob, where gzip's CRC turns nearly every mutation away before a layer
// sees it; here the decompressed body is mutated and re-sealed. Per design
// and per non-config section: truncations must error, byte flips must
// never panic, and a flip the decoders accept must leave a simulation that
// checkpoints again. The accepted-flip count per design is logged — a
// decoder rewrite that keeps every check keeps the counts and the set
// digests. A renamed section and a stray byte after the last one must be
// reported with the section they happened in.
func TestRestoreSurvivesBodyMutations(t *testing.T) {
	t.Parallel()
	const pairs = 40
	for _, d := range []adaptnoc.Design{adaptnoc.DesignBaseline, adaptnoc.DesignAdaptNoC, adaptnoc.DesignOSCAR} {
		t.Run(d.String(), func(t *testing.T) {
			s, err := adaptnoc.NewSim(chkConfig(d))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(2000)
			blob, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			body, err := snap.OpenBody(blob)
			if err != nil {
				t.Fatal(err)
			}
			secs, err := snap.SplitSections(body)
			if err != nil {
				t.Fatal(err)
			}
			// restore re-seals the section list with section i's body
			// replaced.
			restore := func(i int, mutated []byte) (*adaptnoc.Sim, error) {
				m := append([]snap.DeltaSection(nil), secs...)
				m[i].Body = mutated
				return adaptnoc.RestoreSim(snap.Seal(snap.JoinSectionsInto(nil, m)))
			}
			rng := rand.New(rand.NewSource(1234))
			accepted, flips := 0, 0
			which := sha256.New() // identifies the accepted set, not just its size
			for i := 1; i < len(secs); i++ {
				orig := secs[i].Body
				for p := 0; p < pairs && len(orig) > 0; p++ {
					cut := rng.Intn(len(orig))
					if _, err := restore(i, orig[:cut]); err == nil {
						t.Fatalf("section %s truncated at %d of %d bytes restored", secs[i].Name, cut, len(orig))
					}
					flipped := append([]byte(nil), orig...)
					at := rng.Intn(len(flipped))
					flipped[at] ^= 1 << uint(rng.Intn(8))
					flips++
					r, err := restore(i, flipped)
					if err != nil {
						continue
					}
					accepted++
					fmt.Fprintf(which, "%s/%d;", secs[i].Name, p)
					if _, err := r.Checkpoint(); err != nil {
						t.Fatalf("section %s byte %d flipped: restored sim fails to re-checkpoint: %v", secs[i].Name, at, err)
					}
				}
			}
			t.Logf("%s: %d of %d byte flips accepted (set %x)", d, accepted, flips, which.Sum(nil)[:4])

			// Framing damage between the layers is reported like damage
			// inside one: with the restoring prefix and where it happened.
			renamed := append([]snap.DeltaSection(nil), secs...)
			renamed[1].Name = "x" + renamed[1].Name
			_, err = adaptnoc.RestoreSim(snap.Seal(snap.JoinSectionsInto(nil, renamed)))
			if want := "adaptnoc: restoring " + secs[1].Name + ": "; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("renamed section %s: error %v, want prefix %q", secs[1].Name, err, want)
			}
			_, err = adaptnoc.RestoreSim(snap.Seal(append(snap.JoinSectionsInto(nil, secs), 0)))
			if want := "adaptnoc: restoring: after kernel: "; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("stray byte after the last section: error %v, want prefix %q", err, want)
			}
		})
	}
}

// TestRestoreRejectsHostilePayloadKinds rewrites one packet's payload
// record inside the net section of a real checkpoint body. A kind outside
// the four the system model defines — including 256, which a decoder that
// narrowed to a byte first would read as "no payload" — and a transaction
// ID the machine section never restored must fail the restore with an
// error naming the section.
func TestRestoreRejectsHostilePayloadKinds(t *testing.T) {
	t.Parallel()
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignBaseline))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(2000)
	// Tag one in-flight packet with a trace-node payload (kind 3) whose
	// reference word is a sentinel, so its record can be found in the body.
	const traceKind, sentinel = 3, 0x5eedc0de5eedc0de
	tagged := false
	s.Net.ForEachInFlightFlit(func(f *noc.Flit) {
		if !tagged {
			f.Pkt.Payload = noc.Payload{Kind: traceKind, Ref: sentinel}
			tagged = true
		}
	})
	if !tagged {
		t.Fatal("no packet in flight at cycle 2000")
	}
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	body, err := snap.OpenBody(blob)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := snap.SplitSections(body)
	if err != nil {
		t.Fatal(err)
	}
	net := -1
	for i := range secs {
		if secs[i].Name == "net" {
			net = i
		}
	}
	orig := secs[net].Body
	ref := binary.LittleEndian.AppendUint64(nil, sentinel)
	at := bytes.Index(orig, ref)
	kindByte := binary.AppendVarint(nil, traceKind)
	if at < len(kindByte) || !bytes.Equal(orig[at-len(kindByte):at], kindByte) {
		t.Fatalf("tagged payload record not found in the net section")
	}
	// restore swaps the tagged record (kind varint + reference word) for
	// record.
	restore := func(record []byte) error {
		m := append([]snap.DeltaSection(nil), secs...)
		m[net].Body = append(append(append([]byte(nil), orig[:at-len(kindByte)]...), record...), orig[at+len(ref):]...)
		_, err := adaptnoc.RestoreSim(snap.Seal(snap.JoinSectionsInto(nil, m)))
		return err
	}
	if err := restore(append(kindByte, ref...)); err != nil {
		t.Fatalf("unmodified record fails to restore: %v", err)
	}
	const prefix = "adaptnoc: restoring net: "
	for _, kind := range []int64{4, 255, 256} {
		err := restore(append(binary.AppendVarint(nil, kind), ref...))
		want := fmt.Sprintf("unknown payload kind %d", kind)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), want) {
			t.Errorf("payload kind %d: error %v, want %q…%q", kind, err, prefix, want)
		}
	}
	const txnKind = 2
	err = restore(append(binary.AppendVarint(nil, txnKind), ref...))
	if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), "packet references unknown transaction") {
		t.Errorf("dangling transaction ID: error %v", err)
	}
}

func FuzzRestoreSim(f *testing.F) {
	s, err := adaptnoc.NewSim(chkConfig(adaptnoc.DesignAdaptNoC))
	if err != nil {
		f.Fatal(err)
	}
	s.Run(2000)
	blob, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:16])
	f.Add([]byte{})
	f.Add([]byte("ADNOCKPTgarbage"))
	wrongVer := append([]byte(nil), blob...)
	wrongVer[8]++ // version word follows the 8-byte magic
	f.Add(wrongVer)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or allocate beyond what the input plausibly
		// describes; errors are the expected outcome for mutated blobs.
		if r, err := adaptnoc.RestoreSim(data); err == nil {
			// A successful restore must at least round-trip.
			if _, err := r.Checkpoint(); err != nil {
				t.Fatalf("restored sim fails to re-checkpoint: %v", err)
			}
		}
	})
}
