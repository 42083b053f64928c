package serve

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// handoffBytes bounds the in-memory handoff store (Server.handoff), so a
// misbehaving client cannot pin memory. Gzipped checkpoint blobs run tens
// of kilobytes, so the budget holds hundreds of in-flight handoffs.
const handoffBytes = 64 << 20

// ckptStore bounds the on-disk checkpoint directory the way Cache bounds
// the result cache: an LRU over <dir>/<key>.ckpt files with a byte budget,
// evicting (deleting) the least-recently-used checkpoints once exceeded.
// Unlike the result cache the bytes live only on disk — the store tracks
// sizes, not contents. Eviction is always safe: determinism means a lost
// checkpoint costs a resume its fast-forward, never its result. A startup
// sweep indexes what a previous daemon left behind (oldest-modified =
// least-recently-used) and applies the budget immediately, so the
// directory cannot grow without bound across restarts either.
//
// All methods are nil-receiver-safe no-ops, matching the daemon running
// without a CheckpointDir.
type ckptStore struct {
	dir   string
	index *lru // sizes only, charged against the directory budget

	evictions atomic.Int64
}

// defaultCkptBytes is the checkpoint directory budget when Options leaves
// it unset: room for thousands of gzipped checkpoints.
const defaultCkptBytes = 256 << 20

func newCkptStore(dir string, limit int64) *ckptStore {
	if limit <= 0 {
		limit = defaultCkptBytes
	}
	st := &ckptStore{dir: dir}
	st.index = newLRU(limit, func(key string) {
		os.Remove(st.path(key))
		st.evictions.Add(1)
	})
	os.MkdirAll(dir, 0o755)
	st.sweep()
	return st
}

func (st *ckptStore) path(key string) string { return filepath.Join(st.dir, key+".ckpt") }

// sweep indexes the checkpoints a previous daemon left in the directory,
// oldest modification first so the LRU order approximates their real use,
// enforcing the budget as it goes. Stale temp files from a crashed write
// and orphaned delta logs are removed outright.
func (st *ckptStore) sweep() {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	type rec struct {
		key  string
		size int64
		mod  time.Time
	}
	var recs []rec
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".delta") {
			os.Remove(filepath.Join(st.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{strings.TrimSuffix(name, ".ckpt"), fi.Size(), fi.ModTime()})
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].mod.Before(recs[b].mod) })
	for _, r := range recs {
		st.index.put(r.key, nil, r.size)
	}
}

// note records that the checkpoint for key was just (re)written, sizing it
// from disk and evicting older checkpoints if the budget is now exceeded.
func (st *ckptStore) note(key string) {
	if st == nil {
		return
	}
	if fi, err := os.Stat(st.path(key)); err == nil {
		st.index.put(key, nil, fi.Size())
	}
}

// touch marks the checkpoint for key as recently used (a resume restored
// it, or a handoff fetch read it).
func (st *ckptStore) touch(key string) {
	if st != nil {
		st.index.get(key)
	}
}

// remove deletes the checkpoint for key from disk and the index (the job
// completed; its checkpoint is spent).
func (st *ckptStore) remove(key string) {
	if st == nil {
		return
	}
	st.index.take(key)
	os.Remove(st.path(key))
}

// ckptStats reports the store's entry count, tracked bytes, and lifetime
// evictions for /metrics.
func (st *ckptStore) stats() (entries int, bytes int64, evictions int64) {
	if st == nil {
		return 0, 0, 0
	}
	entries, bytes = st.index.stats()
	return entries, bytes, st.evictions.Load()
}
