package serve

import (
	"container/list"
	"sync"
)

// lru is the byte-budgeted least-recently-used index under the daemon's
// three stores: the result cache (values in memory), the handoff store
// (blobs that are only ever put and taken, so recency is insertion order)
// and the checkpoint directory (sizes only; the bytes live on disk). Once
// the budget is exceeded it evicts from the least-recently-used end, but
// always keeps the newest entry, even when that one alone is over budget.
type lru struct {
	limit   int64
	onEvict func(key string) // called with mu held; nil when eviction needs no cleanup

	mu    sync.Mutex
	ll    list.List // of *lruEntry, front = most recently used
	items map[string]*list.Element
	size  int64
}

type lruEntry struct {
	key  string
	size int64
	val  []byte
}

func newLRU(limit int64, onEvict func(key string)) *lru {
	return &lru{limit: limit, onEvict: onEvict, items: make(map[string]*list.Element)}
}

// put stores val (nil for a size-only entry) under key as the most
// recently used entry, replacing any previous one, then enforces the
// budget.
func (l *lru) put(key string, val []byte, size int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		ent := el.Value.(*lruEntry)
		l.size += size - ent.size
		ent.size, ent.val = size, val
	} else {
		l.items[key] = l.ll.PushFront(&lruEntry{key: key, size: size, val: val})
		l.size += size
	}
	for l.size > l.limit && l.ll.Len() > 1 {
		ent := l.removeLocked(l.ll.Back())
		if l.onEvict != nil {
			l.onEvict(ent.key)
		}
	}
}

// get returns key's value and marks it most recently used.
func (l *lru) get(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// take removes key and returns its value.
func (l *lru) take(key string) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	return l.removeLocked(el).val, true
}

func (l *lru) removeLocked(el *list.Element) *lruEntry {
	ent := l.ll.Remove(el).(*lruEntry)
	delete(l.items, ent.key)
	l.size -= ent.size
	return ent
}

// stats reports the entry count and the bytes charged to the budget.
func (l *lru) stats() (entries int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len(), l.size
}
