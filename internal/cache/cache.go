// Package cache provides the decoded-chunk cache behind ARC's range
// reads: one byte-budgeted cache keyed by (archive, chunk) with SIEVE
// eviction (Zhang et al., "SIEVE is Simpler than LRU", NSDI '24),
// single-flight loading so concurrent readers of one chunk decode it
// once, and hit/miss/eviction counters exported as a
// metrics.CacheStats for the arcd STATS endpoint.
//
// The budget is one pool, not stripes: under a Zipf-skewed read mix the
// hot chunks must stay resident wherever their keys hash, which
// per-stripe budgets of a few chunks each cannot promise.
//
// Values are immutable once inserted: readers receive the cached slice
// directly and must not write through it. Eviction only drops the
// cache's reference, so a slice handed out before an eviction stays
// valid for its holder — there is no recycling and therefore no
// use-after-evict hazard.
package cache

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Key identifies one cached chunk: the archive it belongs to (callers
// sharing one Cache across archives allocate distinct Archive ids) and
// the chunk ordinal within it.
type Key struct {
	Archive uint64
	Chunk   int64
}

// DefaultBudgetBytes is the cache budget when the caller passes <= 0.
const DefaultBudgetBytes = 64 << 20

// ErrClosed reports a load attempted on (or interrupted by) a closed
// cache.
var ErrClosed = errors.New("cache: closed")

// entry is one resident chunk in the FIFO of insertion order.
type entry struct {
	key          Key
	val          []byte
	visited      bool   // set by a hit, cleared as the hand sweeps past
	newer, older *entry // FIFO neighbors; nil at the ends
}

// flight is one in-progress load. The leader closes done after
// publishing val/err; followers block on done (or the cache's quit).
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is a single-flight SIEVE cache of decoded chunks. Construct
// with New; all methods are safe for concurrent use. The quit channel
// doubles as the cancellation affordance for followers parked on an
// in-flight load: Close unblocks them with ErrClosed.
type Cache struct {
	mu       sync.Mutex // guards the maps, the FIFO, the hand and visited bits
	byKey    map[Key]*entry
	inflight map[Key]*flight
	newest   *entry
	oldest   *entry
	hand     *entry // next eviction candidate; nil restarts at oldest

	budget   int64
	quit     chan struct{}
	quitOnce sync.Once

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64 // written only under mu
	entries   atomic.Int64
}

// New creates a cache with the given byte budget (<= 0 selects
// DefaultBudgetBytes). The entry being inserted is never evicted, so a
// single chunk larger than the whole budget is still cacheable until
// the next insert displaces it.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	return &Cache{
		byKey:    make(map[Key]*entry),
		inflight: make(map[Key]*flight),
		budget:   budgetBytes,
		quit:     make(chan struct{}),
	}
}

// GetOrLoad returns the cached value for k, or runs load exactly once
// per miss (concurrent callers of the same key wait for the leader's
// result rather than loading again). The returned slice is shared and
// must be treated as read-only. After Close, GetOrLoad (and followers
// already parked on a load) fail with ErrClosed.
func (c *Cache) GetOrLoad(k Key, load func() ([]byte, error)) ([]byte, error) {
	select {
	case <-c.quit:
		return nil, ErrClosed
	default:
	}
	c.mu.Lock()
	if e, ok := c.byKey[k]; ok {
		e.visited = true // a hit marks the entry and never moves it
		c.mu.Unlock()
		c.hits.Add(1)
		return e.val, nil
	}
	if fl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		c.misses.Add(1)
		select {
		case <-fl.done:
			return fl.val, fl.err
		case <-c.quit:
			return nil, ErrClosed
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[k] = fl
	c.mu.Unlock()
	c.misses.Add(1)

	fl.val, fl.err = load()
	// Publish before delisting so a follower that raced past the
	// entries check still finds the flight or the inserted entry.
	closed := false
	select {
	case <-c.quit:
		closed = true // Close raced the load; don't repopulate a drained cache
	default:
	}
	c.mu.Lock()
	delete(c.inflight, k)
	if fl.err == nil && !closed {
		c.insertLocked(k, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// insertLocked evicts until (k, val) fits the budget, or nothing is
// left to evict, then adds it as the newest entry: resident bytes stay
// within the budget unless val alone exceeds it. Caller holds c.mu.
func (c *Cache) insertLocked(k Key, val []byte) {
	if _, ok := c.byKey[k]; ok {
		return // a racing leader for the same key already landed it
	}
	size := int64(len(val))
	for c.oldest != nil && c.bytes.Load()+size > c.budget {
		c.evictLocked(c.victimLocked())
	}
	e := &entry{key: k, val: val, older: c.newest}
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
	c.byKey[k] = e
	c.bytes.Add(size)
	c.entries.Add(1)
}

// victimLocked moves the hand from where it stopped toward the newest
// entry, wrapping to the oldest, and returns the first entry not
// visited since the hand last passed it; the visited entries it passes
// lose their bit. The hand stays on the victim, so evicting it moves
// the hand on. Caller holds c.mu and the FIFO is non-empty.
func (c *Cache) victimLocked() *entry {
	e := c.hand
	if e == nil {
		e = c.oldest
	}
	for e.visited {
		e.visited = false
		if e = e.newer; e == nil {
			e = c.oldest
		}
	}
	c.hand = e
	return e
}

// evictLocked unlinks e, leaving the hand on its newer neighbor.
// Caller holds c.mu.
func (c *Cache) evictLocked(e *entry) {
	if c.hand == e {
		c.hand = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	delete(c.byKey, e.key)
	c.bytes.Add(-int64(len(e.val)))
	c.entries.Add(-1)
	c.evictions.Add(1)
}

// Close marks the cache closed and unblocks every follower parked on
// an in-flight load. Leaders finish their loads (the result is still
// delivered to them); resident entries are dropped and count as
// evictions. Close is idempotent.
func (c *Cache) Close() error {
	c.quitOnce.Do(func() { close(c.quit) })
	c.mu.Lock()
	for c.oldest != nil {
		c.evictLocked(c.oldest)
	}
	c.mu.Unlock()
	return nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() metrics.CacheStats {
	return metrics.CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     c.entries.Load(),
		Bytes:       c.bytes.Load(),
		BudgetBytes: c.budget,
	}
}
