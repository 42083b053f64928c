package snap

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// stepSource is a SectionSource over a small structured state that moves
// one step per snapshot, so every link differs from the one before.
func stepSource() (*SectionSource, *int) {
	step := new(int)
	return &SectionSource{Walk: func() ([]DeltaSection, error) {
		*step++
		return buildSections(map[uint64]byte{1: 'a', 2: byte('a' + *step), uint64(3 + *step): 'c'}, "t"+strconv.Itoa(*step)), nil
	}}, step
}

// fullAt is the sealed blob of stepSource's state at step.
func fullAt(step int) []byte {
	return Seal(JoinSectionsInto(nil, buildSections(map[uint64]byte{1: 'a', 2: byte('a' + step), uint64(3 + step): 'c'}, "t"+strconv.Itoa(step))))
}

func readChain(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := ReadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func logExists(path string) bool {
	_, err := os.Stat(path + logSuffix)
	return err == nil
}

// TestChainRebasesAtBound: with a bound of two frames the third save
// after a base rebases and drops the log, and every save in between reads
// back as the full blob of the state it saved.
func TestChainRebasesAtBound(t *testing.T) {
	src, step := stepSource()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	var c Chain
	for i, wantLog := range []bool{false, true, true, false, true} {
		if err := c.Save(path, 2, src); err != nil {
			t.Fatal(err)
		}
		if logExists(path) != wantLog {
			t.Fatalf("save %d: log present = %v, want %v", i+1, !wantLog, wantLog)
		}
		if !bytes.Equal(readChain(t, path), fullAt(*step)) {
			t.Fatalf("save %d: chain does not read back as the saved state", i+1)
		}
	}
}

// TestChainSaveFailureRebases: a frame the log could not take leaves the
// chain forgotten, so the next Save writes a full base instead of a frame
// extending a link that never reached the disk.
func TestChainSaveFailureRebases(t *testing.T) {
	src, step := stepSource()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	var c Chain
	if err := c.Save(path, 8, src); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+logSuffix, 0o755); err != nil { // appends now fail
		t.Fatal(err)
	}
	if err := c.Save(path, 8, src); err == nil {
		t.Fatal("append into a directory succeeded")
	}
	if err := c.Save(path, 8, src); err != nil {
		t.Fatal(err)
	}
	if logExists(path) || !bytes.Equal(readChain(t, path), fullAt(*step)) {
		t.Fatal("save after a failed append did not rebase")
	}
}

func TestFramesAfter(t *testing.T) {
	src, _ := stepSource()
	var c Chain
	base, _, _ := c.Next(src, 8)
	var frames [][]byte
	var tips [][32]byte
	for range 3 {
		f, _, _ := c.Next(src, 8)
		tip, _ := src.CheckpointBodyHash()
		frames, tips = append(frames, f), append(tips, tip)
	}
	body, _ := OpenBody(base)
	if after, ok := FramesAfter(base, frames, BodyHash(body)); !ok || len(after) != 3 {
		t.Fatalf("base: %d frames, ok=%v", len(after), ok)
	}
	if after, ok := FramesAfter(base, frames, tips[0]); !ok || len(after) != 2 || !bytes.Equal(after[0], frames[1]) {
		t.Fatalf("first frame: %d frames, ok=%v", len(after), ok)
	}
	if after, ok := FramesAfter(base, frames, tips[2]); !ok || len(after) != 0 {
		t.Fatalf("tip: %d frames, ok=%v", len(after), ok)
	}
	if _, ok := FramesAfter(base, frames, [32]byte{1}); ok {
		t.Fatal("unknown hash matched")
	}
}

// chainFixture is FuzzReadChain's base and the three frames extending it.
func chainFixture() (base []byte, frames [][]byte) {
	src, _ := stepSource()
	var c Chain
	base, _, _ = c.Next(src, 8)
	for range 3 {
		f, _, _ := c.Next(src, 8)
		frames = append(frames, f)
	}
	return base, frames
}

// FuzzReadChain feeds the chain reader a valid base and an arbitrary log.
// It must never panic, and what it returns must be the base itself or the
// state some prefix of the log's records reaches. The committed corpus
// holds an empty log, an intact one, a torn tail, a stale-base frame
// after a valid one, and an overlong length prefix.
func FuzzReadChain(f *testing.F) {
	base, _ := chainFixture()
	f.Fuzz(func(t *testing.T, log []byte) {
		got := recoverChain(base, log)
		if bytes.Equal(got, base) {
			return
		}
		var records [][]byte
		for r := NewReader(log); r.Len() > 0; {
			rec, err := r.Bytes0()
			if err != nil {
				break
			}
			records = append(records, rec)
			if want, err := ApplyChain(base, records...); err == nil && bytes.Equal(got, want) {
				return
			}
		}
		t.Fatal("recovered state is neither the base nor reached by a prefix of the log")
	})
}
