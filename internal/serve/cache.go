package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Cache is the content-addressed result store: canonical-request hash →
// marshaled Results bytes. Because the simulator is deterministic, an entry
// is not an approximation of a re-run — it IS the re-run, byte for byte,
// which is why the daemon can answer a repeated submission without
// committing a worker.
//
// In memory it is an LRU bounded by a byte budget. With a directory
// configured, entries are also written through to <dir>/<key>.json
// (temp-file + rename, so a crash never leaves a torn entry) and misses
// fall back to reading the directory — a restarted daemon keeps its
// history.
type Cache struct {
	mem *lru
	dir string

	hits, misses, diskHits atomic.Int64
}

// NewCache returns a cache bounded to limit bytes of values (<= 0 selects
// 64 MiB). dir is the optional persistence directory ("" disables disk).
func NewCache(limit int64, dir string) *Cache {
	if limit <= 0 {
		limit = 64 << 20
	}
	return &Cache{mem: newLRU(limit, nil), dir: dir}
}

// Get returns the cached bytes for key. Callers must not modify the
// returned slice. A memory miss consults the persistence directory before
// giving up.
func (c *Cache) Get(key string) ([]byte, bool) {
	if val, ok := c.mem.get(key); ok {
		c.hits.Add(1)
		return val, true
	}
	if c.dir != "" {
		if val, err := os.ReadFile(c.path(key)); err == nil {
			c.diskHits.Add(1)
			c.hits.Add(1)
			c.put(key, val, false) // already on disk
			return val, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores val under key, evicting least-recently-used entries while the
// budget is exceeded (the newest entry always stays, even when it alone is
// over budget). With persistence enabled the entry is written to disk
// immediately.
func (c *Cache) Put(key string, val []byte) { c.put(key, val, true) }

func (c *Cache) put(key string, val []byte, persist bool) {
	c.mem.put(key, val, int64(len(val)))
	if persist && c.dir != "" {
		c.writeThrough(key, val) // disk keeps evicted entries; only memory is bounded
	}
}

// writeThrough persists one entry atomically; a failure degrades to
// memory-only caching rather than failing the job.
func (c *Cache) writeThrough(key string, val []byte) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "."+key+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(key)); err != nil {
		os.Remove(name)
	}
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries        int
	Bytes          int64
	Hits, Misses   int64
	DiskHits       int64
	BudgetBytes    int64
	PersistenceDir string
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	entries, bytes := c.mem.stats()
	return CacheStats{
		Entries: entries, Bytes: bytes,
		Hits: c.hits.Load(), Misses: c.misses.Load(), DiskHits: c.diskHits.Load(),
		BudgetBytes: c.mem.limit, PersistenceDir: c.dir,
	}
}

// Flush is the shutdown barrier: because writes go through synchronously
// it only has to verify the persistence directory is reachable, but
// callers should treat it as "everything cached so far survives a restart".
func (c *Cache) Flush() error {
	if c.dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("serve: cache flush: %w", err)
	}
	return nil
}
