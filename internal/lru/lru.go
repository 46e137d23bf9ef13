// Package lru implements the Web-proxy document cache used throughout the
// paper's evaluation: least-recently-used replacement over a byte-capacity
// budget, with the paper's policy that "documents larger than 250 KB are
// not cached", version (last-modified/size) tracking for staleness
// detection, an eviction callback that feeds cache-summary deltas, and a
// Touch operation supporting the single-copy sharing scheme ("the other
// proxy marks the document as most-recently-accessed").
//
// The cache is hash-striped into power-of-two shards (memcached-style
// segmented LRU): each shard owns a slice of the byte budget and its own
// recency list, so concurrent requests on different shards never contend.
// Replacement is LRU within a shard — an approximation of global LRU whose
// error vanishes as documents spread uniformly over shards. Shard count is
// clamped so every cacheable document fits any single shard's budget;
// small caches therefore degenerate to one shard and exact global LRU.
package lru

import (
	"container/list"
	"errors"
	"hash/maphash"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxObjectSize is the paper's cacheability limit: 250 KB.
const DefaultMaxObjectSize = 250 * 1024

// Entry is one cached document.
type Entry struct {
	Key     string // document URL
	Size    int64  // body size in bytes
	Version int64  // last-modified timestamp or content fingerprint; a
	// mismatch on a later request is a staleness signal (the
	// paper counts such hits as misses / remote stale hits)

	// Body optionally carries the document payload, so a caller serving
	// real documents (the HTTP proxy) needs no side table keyed by the
	// same string — one lock and one lookup per hit, and eviction drops
	// entry and payload atomically. The cache never reads it; Size is the
	// accounting truth regardless of len(Body).
	Body []byte
}

// Event describes why an entry left or entered the cache, for observers.
type Event int

// Eviction causes reported to the OnEvict callback.
const (
	EvictCapacity Event = iota // displaced by LRU replacement
	EvictRemoved               // explicitly removed (e.g. consistency purge)
	EvictUpdated               // replaced by a new version of the same key
)

// Config customizes a Cache.
type Config struct {
	// Capacity is the cache's byte budget. NewCache requires it positive;
	// the deprecated positional constructors fill it in.
	Capacity int64
	// Shards requests a stripe count (rounded up to a power of two;
	// 0: derived from runtime.GOMAXPROCS). The effective count is clamped
	// so every cacheable document fits one shard's budget — tiny caches
	// always get exactly one shard and exact global LRU order.
	Shards int
	// MaxObjectSize rejects documents larger than this many bytes
	// (DefaultMaxObjectSize when 0; negative disables the limit).
	MaxObjectSize int64
	// OnInsert, if non-nil, observes every insertion of a key not already
	// cached. Version-only refreshes of a cached key do not fire it (the
	// directory membership — what cache summaries track — is unchanged);
	// they fire OnEvict with EvictUpdated instead.
	OnInsert func(Entry)
	// OnEvict, if non-nil, observes every departure with its cause.
	//
	// Both callbacks run with the key's shard locked, in the order the
	// shard was mutated, so they must not call back into the cache.
	// Firing after the unlock would let a concurrent mutation of the same
	// key reach observers first: an eviction of k racing a re-insert of k
	// could arrive as insert-then-evict, leaving a counting directory with
	// a phantom member and an underflowed counter.
	OnEvict func(Entry, Event)
	// OpTiming, if non-nil, observes the duration of every Get (op OpGet)
	// and every stored Put (op OpInsert) — the perfwatch stage-timing
	// hook. Nil (the default) leaves the hot path untouched: the timing
	// branch costs one predictable nil check and zero allocations.
	OpTiming func(op string, d time.Duration)
}

// Op names reported to Config.OpTiming.
const (
	OpGet    = "get"
	OpInsert = "insert"
)

// ErrBadCapacity reports a non-positive cache capacity.
var ErrBadCapacity = errors.New("lru: capacity must be positive")

// node is a cached entry plus its global recency stamp. Stamps come from
// one atomic clock shared by all shards, so merging shard lists by stamp
// reconstructs a global most-recently-used order for Keys and Entries.
type node struct {
	e     Entry
	stamp uint64
}

// shard is one stripe: a private byte budget, recency list and index, plus
// its slice of the lifetime counters. The counters are plain integers
// mutated under mu — the lock is already held on every path that touches
// them, so they cost nothing on the hot path; Stats and Counters sum
// across shards.
type shard struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses                     uint64
	evCapacity, evRemoved, evUpdated uint64

	// contended counts per-key operations that found the shard lock held
	// and had to block. It is atomic because the count is taken before the
	// lock is acquired; everything else above stays lock-guarded.
	contended atomic.Uint64
}

// lockSlow is the contended half of the per-key locking idiom
//
//	if !s.mu.TryLock() {
//		s.lockSlow()
//	}
//
// open-coded at every call site so the uncontended path is exactly one
// inlined CAS (a wrapper method exceeds the inlining budget and would tax
// every operation with a call frame); only acquisitions that actually
// found the lock held pay this call and the extra atomic increment.
//
//go:noinline
func (s *shard) lockSlow() {
	s.contended.Add(1)
	s.mu.Lock()
}

// Cache is a byte-budget LRU cache of documents. It is safe for concurrent
// use; operations on keys hashing to different shards proceed in parallel.
type Cache struct {
	capacity int64
	maxObj   int64
	shards   []shard
	mask     uint64
	seed     maphash.Seed
	clock    atomic.Uint64 // recency stamps; see node
	onInsert func(Entry)
	onEvict  func(Entry, Event)
	timing   func(op string, d time.Duration)
}

// shardCount resolves the effective stripe count: the requested (or
// GOMAXPROCS-derived) count rounded up to a power of two, clamped down to
// the largest power of two for which every shard's budget still holds the
// largest cacheable document.
func shardCount(requested int, capacity, effMaxObj int64) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	n = 1 << bits.Len(uint(n-1)) // round up to power of two (1 stays 1)
	maxShards := 1
	if effMaxObj > 0 {
		if m := capacity / effMaxObj; m >= 1 {
			maxShards = 1 << (bits.Len(uint(m)) - 1) // round down to power of two
		}
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// NewCache creates a cache from cfg. Config.Capacity must be positive.
func NewCache(cfg Config) (*Cache, error) {
	if cfg.Capacity <= 0 {
		return nil, ErrBadCapacity
	}
	maxObj := cfg.MaxObjectSize
	if maxObj == 0 {
		maxObj = DefaultMaxObjectSize
	}
	// The largest document Cacheable admits: bounded by capacity always,
	// and by maxObj when the limit is enabled and tighter.
	effMaxObj := cfg.Capacity
	if maxObj > 0 && maxObj < effMaxObj {
		effMaxObj = maxObj
	}
	n := shardCount(cfg.Shards, cfg.Capacity, effMaxObj)
	c := &Cache{
		capacity: cfg.Capacity,
		maxObj:   maxObj,
		shards:   make([]shard, n),
		mask:     uint64(n - 1),
		seed:     maphash.MakeSeed(),
		onInsert: cfg.OnInsert,
		onEvict:  cfg.OnEvict,
		timing:   cfg.OpTiming,
	}
	base, rem := cfg.Capacity/int64(n), cfg.Capacity%int64(n)
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = base
		if int64(i) < rem {
			s.capacity++
		}
		s.ll = list.New()
		s.items = make(map[string]*list.Element)
	}
	return c, nil
}

// MustNewCache is NewCache, panicking on error.
func MustNewCache(cfg Config) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity returns the byte budget.
func (c *Cache) Capacity() int64 { return c.capacity }

// MaxObjectSize returns the per-document cacheability limit (<0: none).
func (c *Cache) MaxObjectSize() int64 { return c.maxObj }

// Shards returns the effective stripe count.
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor maps a key to its stripe. maphash uses the hardware-accelerated
// runtime string hash, so the lookup costs a few ns rather than a per-byte
// FNV loop; a single-shard cache skips hashing entirely, keeping the
// degenerate (exact global LRU) configuration as cheap as the pre-sharding
// code.
func (c *Cache) shardFor(key string) *shard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// tick advances the recency clock.
func (c *Cache) tick() uint64 { return c.clock.Add(1) }

// Len returns the number of cached documents.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the bytes currently cached.
func (c *Cache) Bytes() int64 {
	var b int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		b += s.bytes
		s.mu.Unlock()
	}
	return b
}

// Cacheable reports whether a document of the given size may be stored.
func (c *Cache) Cacheable(size int64) bool {
	if size < 0 {
		return false
	}
	if c.maxObj >= 0 && size > c.maxObj {
		return false
	}
	return size <= c.capacity
}

// Get returns the entry for key and promotes it to most recently used.
// The second result reports presence; it does not imply freshness — compare
// Entry.Version against the request's expected version for that.
func (c *Cache) Get(key string) (Entry, bool) {
	if c.timing != nil {
		// Conditional open-coded defer: when timing is off this costs one
		// branch, not an extra call frame around the hot path.
		start := time.Now()
		defer func() { c.timing(OpGet, time.Since(start)) }()
	}
	s := c.shardFor(key)
	if !s.mu.TryLock() {
		s.lockSlow()
	}
	el, ok := s.items[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	nd := el.Value.(*node)
	if c.mask != 0 && nd.stamp != c.clock.Load() {
		// Holding the newest stamp means this node is already the global
		// MRU; re-touching it cannot change the merged order, so the
		// atomic read-modify-write is skipped — the common case when one
		// hot document absorbs a run of hits.
		nd.stamp = c.tick()
	}
	s.ll.MoveToFront(el)
	e := nd.e
	s.hits++
	s.mu.Unlock()
	return e, true
}

// Peek returns the entry without promoting it and without touching hit
// accounting. Summaries and tests use this.
func (c *Cache) Peek(key string) (Entry, bool) {
	s := c.shardFor(key)
	if !s.mu.TryLock() {
		s.lockSlow()
	}
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return Entry{}, false
	}
	return el.Value.(*node).e, true
}

// Contains reports presence without promotion or accounting.
func (c *Cache) Contains(key string) bool {
	_, ok := c.Peek(key)
	return ok
}

// Touch promotes key to most recently used without reading it, the
// operation single-copy sharing performs on the owning proxy when a peer
// serves a remote hit. It reports whether the key was present.
func (c *Cache) Touch(key string) bool {
	s := c.shardFor(key)
	if !s.mu.TryLock() {
		s.lockSlow()
	}
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return false
	}
	nd := el.Value.(*node)
	if c.mask != 0 && nd.stamp != c.clock.Load() {
		nd.stamp = c.tick() // see Get: global-MRU re-touches skip the RMW
	}
	s.ll.MoveToFront(el)
	return true
}

// Put inserts or updates a document, evicting LRU entries as needed to fit.
// It reports whether the document was stored; uncacheable documents (too
// large) are rejected with stored == false and leave the cache unchanged.
func (c *Cache) Put(e Entry) (stored bool) {
	if !c.Cacheable(e.Size) {
		return false
	}
	if c.timing != nil {
		start := time.Now()
		defer func() { c.timing(OpInsert, time.Since(start)) }()
	}
	s := c.shardFor(e.Key)
	if !s.mu.TryLock() {
		s.lockSlow()
	}
	if el, ok := s.items[e.Key]; ok {
		nd := el.Value.(*node)
		old := nd.e
		s.bytes += e.Size - old.Size
		nd.e = e
		if c.mask != 0 {
			nd.stamp = c.tick()
		}
		s.ll.MoveToFront(el)
		if old.Version != e.Version {
			s.evUpdated++
			if c.onEvict != nil {
				c.onEvict(old, EvictUpdated)
			}
		}
		c.evictOverflowLocked(s)
		s.mu.Unlock()
		return true
	}
	s.bytes += e.Size
	nd := &node{e: e}
	if c.mask != 0 {
		nd.stamp = c.tick()
	}
	s.items[e.Key] = s.ll.PushFront(nd)
	if c.onInsert != nil {
		c.onInsert(e)
	}
	c.evictOverflowLocked(s)
	s.mu.Unlock()
	return true
}

// Remove deletes key, reporting whether it was present.
func (c *Cache) Remove(key string) bool {
	s := c.shardFor(key)
	if !s.mu.TryLock() {
		s.lockSlow()
	}
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return false
	}
	c.removeElementLocked(s, el, EvictRemoved)
	s.mu.Unlock()
	return true
}

func (c *Cache) evictOverflowLocked(s *shard) {
	for s.bytes > s.capacity {
		back := s.ll.Back()
		if back == nil {
			return
		}
		c.removeElementLocked(s, back, EvictCapacity)
	}
}

func (c *Cache) removeElementLocked(s *shard, el *list.Element, why Event) {
	e := el.Value.(*node).e
	s.ll.Remove(el)
	delete(s.items, e.Key)
	s.bytes -= e.Size
	switch why {
	case EvictCapacity:
		s.evCapacity++
	case EvictRemoved:
		s.evRemoved++
	}
	if c.onEvict != nil {
		c.onEvict(e, why)
	}
}

// snapshot collects every shard's nodes (entry + recency stamp) and sorts
// them most recently used first using the global clock. A single-shard
// cache skips stamping entirely (its list order is the global order), so
// its walk is returned as-is.
func (c *Cache) snapshot() []node {
	out := make([]node, 0, 64)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			out = append(out, *el.Value.(*node))
		}
		s.mu.Unlock()
	}
	if c.mask != 0 {
		sort.Slice(out, func(i, j int) bool { return out[i].stamp > out[j].stamp })
	}
	return out
}

// Keys returns all cached keys from most to least recently used.
func (c *Cache) Keys() []string {
	nodes := c.snapshot()
	out := make([]string, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.e.Key
	}
	return out
}

// Entries returns all cached entries from most to least recently used.
func (c *Cache) Entries() []Entry {
	nodes := c.snapshot()
	out := make([]Entry, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.e
	}
	return out
}

// Restore bulk-loads entries captured by Entries on a previous run,
// given most-recently-used first — the warm-restart boot path. It fires
// no callbacks (recovery reconciles the directory itself) and never
// evicts: when the snapshot does not fit the current geometry (capacity,
// shard count or object-size limit changed since it was taken), the
// least recently used entries are the ones dropped, and their keys are
// returned so the caller can reconcile the restored directory. Keys
// already present are left untouched and count as stored.
func (c *Cache) Restore(entries []Entry) (stored int, dropped []string) {
	// Admission pass, MRU first so recency wins budget contention: plan
	// per-shard byte usage without mutating anything.
	planned := make([]int64, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		planned[i] = s.bytes
		s.mu.Unlock()
	}
	shardIdx := func(key string) int {
		if c.mask == 0 {
			return 0
		}
		return int(maphash.String(c.seed, key) & c.mask)
	}
	accepted := make([]Entry, 0, len(entries))
	for _, e := range entries {
		i := shardIdx(e.Key)
		if !c.Cacheable(e.Size) || planned[i]+e.Size > c.shards[i].capacity {
			dropped = append(dropped, e.Key)
			continue
		}
		planned[i] += e.Size
		accepted = append(accepted, e)
	}
	// Insertion pass, LRU first: each PushFront with a fresh stamp lands
	// the entry above its older siblings, reproducing both the per-shard
	// list order and the merged global recency order.
	for i := len(accepted) - 1; i >= 0; i-- {
		e := accepted[i]
		s := &c.shards[shardIdx(e.Key)]
		if !s.mu.TryLock() {
			s.lockSlow()
		}
		if _, ok := s.items[e.Key]; ok {
			s.mu.Unlock()
			stored++ // already cached: present is what Restore promises
			continue
		}
		if s.bytes+e.Size > s.capacity {
			// A concurrent writer consumed the planned budget; shed the
			// entry rather than evicting what it stored.
			s.mu.Unlock()
			dropped = append(dropped, e.Key)
			continue
		}
		s.bytes += e.Size
		nd := &node{e: e}
		if c.mask != 0 {
			nd.stamp = c.tick()
		}
		s.items[e.Key] = s.ll.PushFront(nd)
		s.mu.Unlock()
		stored++
	}
	return stored, dropped
}

// Stats returns lifetime (hits, misses) counted by Get.
func (c *Cache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// Counters is a snapshot of the cache's lifetime activity.
type Counters struct {
	Hits, Misses uint64
	// EvictedCapacity counts LRU displacements, Removed explicit
	// removals (consistency purges), Updated version replacements —
	// the staleness invalidations of the paper's modified-document
	// accounting.
	EvictedCapacity, Removed, Updated uint64
	// LockContentions counts per-key operations that found their shard
	// lock held — the contention signal behind the ROADMAP hot-path
	// reclaim item.
	LockContentions uint64
}

// Counters snapshots all lifetime counters at once.
func (c *Cache) Counters() Counters {
	var out Counters
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.EvictedCapacity += s.evCapacity
		out.Removed += s.evRemoved
		out.Updated += s.evUpdated
		s.mu.Unlock()
		out.LockContentions += s.contended.Load()
	}
	return out
}

// ShardStats describes one stripe's occupancy and activity — the
// distribution view behind the per-shard gauges at /metrics. Uneven
// Entries/Bytes across shards means the key hash is clumping; a high
// LockContentions on one shard means a hot key set serializes there.
type ShardStats struct {
	Shard           int
	Entries         int
	Bytes, Capacity int64
	Hits, Misses    uint64
	LockContentions uint64
}

// ShardStat snapshots one stripe (zero value for an out-of-range index).
func (c *Cache) ShardStat(i int) ShardStats {
	if i < 0 || i >= len(c.shards) {
		return ShardStats{}
	}
	s := &c.shards[i]
	s.mu.Lock()
	out := ShardStats{
		Shard:    i,
		Entries:  s.ll.Len(),
		Bytes:    s.bytes,
		Capacity: s.capacity,
		Hits:     s.hits,
		Misses:   s.misses,
	}
	s.mu.Unlock()
	out.LockContentions = s.contended.Load()
	return out
}

// ShardStats snapshots every stripe. Shards are snapshotted one at a time;
// the view is per-shard consistent, not globally atomic.
func (c *Cache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		out[i] = c.ShardStat(i)
	}
	return out
}

// ClockTicks returns the number of advances of the global recency clock —
// every tick is one atomic.Add on a cache line shared by all shards, so
// the tick rate bounds how hard the stamp counter can contend.
func (c *Cache) ClockTicks() uint64 { return c.clock.Load() }

// Clear empties the cache without firing eviction callbacks.
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.items = make(map[string]*list.Element)
		s.bytes = 0
		s.mu.Unlock()
	}
}
