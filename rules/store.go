package rules

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbtrules/arm"
)

// HashKey computes §4's lookup key for a guest instruction sequence: the
// arithmetic (integer) mean of the guest opcodes.
func HashKey(seq []arm.Instr) int {
	if len(seq) == 0 {
		return 0
	}
	sum := 0
	for _, in := range seq {
		sum += int(in.Op)
	}
	return sum / len(seq)
}

// DefaultShards is the shard count NewStore uses. Sixteen shards cover
// the data-processing opcode range (the dominant mean keys of learned
// single-instruction rules land in 0..15), so concurrent learners
// inserting a diverse rule mix rarely collide on a shard lock.
const DefaultShards = 16

// Store installs rules in the hash table keyed by HashKey, as the DBT does
// at start-up (§4). Redundant rules (same guest pattern) keep only the
// variant with the fewest host instructions (§6.1).
//
// The store is sharded by the coarse mean key: a guest pattern lives in
// shard HashKey(pattern) % shards, each shard behind its own RWMutex with
// its own mutation counter. Concurrent Adds from parallel learners only
// contend when their patterns share a shard, and a Quarantine's write
// blast radius — the version bump and the refreeze it forces — confines
// to the shards that actually held the quarantined rule. All dedup and
// replacement decisions are pattern-local, and a pattern's shard is a
// pure function of its content, so the sharded store converges on exactly
// the rule set a single-lock store would (see FuzzShardedStoreMatchesSingle).
//
// A Store is safe for concurrent use. The PreferFirst policy field is
// configuration — set it before sharing the store across goroutines.
type Store struct {
	shards []shard
	// version is the store-wide mutation counter: every shard mutation
	// bumps it while holding that shard's write lock. Freeze reads it
	// under all shard read locks, where no writer can be mid-mutation, so
	// the stamped value is exact; lock-free readers (Version) see a
	// monotonic counter whose movement means "something changed".
	version atomic.Uint64
	count   atomic.Int64
	// maxLenHint is a monotonic upper bound on the longest installed
	// pattern: raised by Add, never lowered by Quarantine (the match scans
	// only use it to bound probe lengths, so an over-estimate costs a few
	// dead probes after a quarantine, never a missed match). MaxLen()
	// reports the exact value.
	maxLenHint atomic.Int64
	// PreferFirst keeps the first-learned rule for a guest pattern instead
	// of the fewest-host-instructions one (ablation of the §6.1 redundant-
	// rule selection policy).
	PreferFirst bool
	// tel holds the telemetry handles installed by SetTelemetry (see
	// telemetry.go); atomic so lookup/insert paths read it lock-free.
	tel telAtomicPtr
	// stitched caches the last fully stitched Index together with the
	// per-shard snapshots it was built from. When a refreeze finds every
	// shard snapshot unchanged (pointer-equal — snaps are immutable and
	// replaced only when a shard's version moves), the whole stitch is
	// skipped and the cached Index returned: a no-op refreeze is O(shards)
	// pointer compares instead of a dense-table rebuild.
	stitched atomic.Pointer[stitchedIndex]
}

// stitchedIndex pairs a stitched Index with the shard snapshots that fed
// it, for the Freeze no-op fast path.
type stitchedIndex struct {
	snaps []*shardSnap
	ix    *Index
}

// shard is one lock domain of the store. Every map is keyed by values
// derived from the guest pattern, and a pattern's shard is decided by its
// mean key, so a rule's whole lifecycle — insert, dedup, replacement,
// quarantine — happens under one shard lock.
type shard struct {
	mu    sync.RWMutex
	byKey map[int][]*Rule
	// byPattern deduplicates on the canonical guest-pattern string.
	byPattern map[string]*Rule
	// quarantined holds rules pulled from the lookup structures after a
	// contained runtime fault was attributed to them; quarantinedPat
	// remembers their guest patterns so Add cannot reinstall an
	// equivalent bad rule (e.g. the same rule re-learned or re-read from
	// disk).
	quarantined    []*Rule
	quarantinedPat map[string]bool
	maxLen         int
	count          int
	// version counts this shard's mutations. Freeze caches a per-shard
	// snapshot stamped with it, so a refreeze after a mutation rebuilds
	// only the dirty shards' contributions.
	version uint64
	// inconsistent counts bucket removals that failed to find the rule
	// being replaced — an internal invariant violation that would let
	// count/maxLen drift and stale rules linger in lookup buckets. It is
	// asserted zero by CheckInvariants.
	inconsistent int
	// snap caches the frozen view of this shard; valid while
	// snap.version == version. Concurrent freezers may both rebuild and
	// race the store — the snapshots are equivalent, last write wins.
	snap atomic.Pointer[shardSnap]
}

// NewStore returns an empty rule store with DefaultShards shards.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards returns an empty rule store with the given shard count
// (values below 1 are clamped to 1 — a single-lock store, the
// pre-sharding behaviour and the differential/contention baseline).
func NewStoreShards(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]shard, n)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.byKey = map[int][]*Rule{}
		sh.byPattern = map[string]*Rule{}
		sh.quarantinedPat = map[string]bool{}
	}
	return s
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardFor maps a mean key to its owning shard.
func (s *Store) shardFor(key int) *shard { return &s.shards[key%len(s.shards)] }

// ShardVersion returns shard i's mutation counter. A quarantine bumps
// only the shards that held the victim rule, so consumers tracking
// per-shard versions (the refreeze snap cache, tests, the dist server's
// diagnostics) can see that the blast radius was confined.
func (s *Store) ShardVersion(i int) uint64 {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.version
}

// patternKey canonicalizes the parameterized guest sequence. Parameters
// are numbered by first appearance, so structurally identical patterns
// print identically.
func patternKey(guest []arm.Instr) string { return arm.Seq(guest) }

// Add installs a rule, returning false when an equal-or-better rule for
// the same guest pattern already exists. Dedup-and-insert is atomic under
// the pattern's shard lock, so concurrent learners racing on the same
// guest pattern still converge on the §6.1 fewest-host-instructions
// winner, while learners working on patterns in different shards do not
// contend at all.
func (s *Store) Add(r *Rule) bool {
	// Latency is timed from before the lock so insert contention between
	// parallel learners shows up in the rules_add_ns tail.
	tel := s.telArmed()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	key := HashKey(r.Guest)
	sh := s.shardFor(key)
	sh.mu.Lock()
	added := s.addLocked(sh, key, r)
	sh.mu.Unlock()
	if tel != nil {
		if added {
			tel.adds.Inc()
		} else {
			tel.addRejects.Inc()
		}
		tel.addNS.ObserveSince(t0)
		tel.telStoreState(s.version.Load(), int(s.count.Load()))
	}
	return added
}

// AddAll calls Add on each rule in input order — same per-rule dedup
// decisions, version bumps and telemetry — and reports how many were
// installed and how many refused, the feedback batch publishers
// (learn.Options.publish, the rule miner) want.
func (s *Store) AddAll(list []*Rule) (added, rejected int) {
	for _, r := range list {
		if s.Add(r) {
			added++
		} else {
			rejected++
		}
	}
	return added, rejected
}

// addLocked is the body of Add under an already-held shard write lock;
// key is HashKey(r.Guest) (which selected sh). It reports whether the
// rule was installed.
func (s *Store) addLocked(sh *shard, key int, r *Rule) bool {
	pk := patternKey(r.Guest)
	if sh.quarantinedPat[pk] {
		// The pattern was quarantined after a contained runtime fault;
		// refusing reinstallation keeps the bad rule out even if it is
		// re-learned or re-read from a file.
		return false
	}
	if prev, ok := sh.byPattern[pk]; ok {
		if s.PreferFirst || len(prev.Host) <= len(r.Host) {
			return false
		}
		// Replace: drop prev from its bucket. A missing bucket entry
		// means byKey disagrees with byPattern; record it so the
		// selftest (CheckInvariants) reports the drift instead of letting
		// count silently diverge and a stale rule keep winning lookups.
		if !removeRule(sh.byKey, HashKey(prev.Guest), prev) {
			sh.inconsistent++
		}
		sh.count--
		s.count.Add(-1)
	}
	sh.byPattern[pk] = r
	sh.byKey[key] = append(sh.byKey[key], r)
	if len(r.Guest) > sh.maxLen {
		sh.maxLen = len(r.Guest)
	}
	for {
		hint := s.maxLenHint.Load()
		if int64(len(r.Guest)) <= hint || s.maxLenHint.CompareAndSwap(hint, int64(len(r.Guest))) {
			break
		}
	}
	sh.count++
	sh.version++
	s.count.Add(1)
	s.version.Add(1)
	return true
}

// removeRule drops one rule pointer from a bucket, reporting whether it
// was present. An emptied bucket is deleted outright: Freeze sizes its
// dense table from the live keys, so a lingering empty bucket would make
// it index a table sized for rules that no longer exist.
func removeRule(m map[int][]*Rule, key int, r *Rule) bool {
	bucket := m[key]
	for i, cand := range bucket {
		if cand == r {
			if len(bucket) == 1 {
				delete(m, key)
			} else {
				m[key] = append(bucket[:i], bucket[i+1:]...)
			}
			return true
		}
	}
	return false
}

// Quarantine removes every installed rule carrying the given ID from all
// lookup structures (IDs are unique per learner, so this is normally one
// rule). Quarantined rules stop matching immediately on the locked paths,
// are excluded from subsequent Freeze() snapshots (the version bump makes
// engines holding an old snapshot refreeze), and their guest patterns are
// barred from reinstallation by Add. Only the shards that actually held a
// victim are written: their versions bump and their cached freeze
// snapshots invalidate, while untouched shards keep serving their cached
// snapshots through the next Freeze. It returns the number of rules
// quarantined; calling it again with the same ID is a no-op.
func (s *Store) Quarantine(id int) int {
	tel := s.telArmed()
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	total := 0
	for i := range s.shards {
		total += s.quarantineShard(&s.shards[i], id)
	}
	if tel != nil {
		if total > 0 {
			tel.quarantines.Add(uint64(total))
		}
		tel.quarantineNS.ObserveSince(t0)
		tel.telStoreState(s.version.Load(), int(s.count.Load()))
	}
	return total
}

// Remove pulls every installed rule carrying the given ID from the
// lookup structures without barring its guest pattern: unlike
// Quarantine, the rule was not judged faulty — it just isn't wanted any
// more (the miner's eviction loop sheds mined rules that never fire this
// way), so an equivalent rule may be re-Added later. Only the shards
// that held a victim bump their versions. Returns the number of rules
// removed.
func (s *Store) Remove(id int) int {
	total := 0
	for i := range s.shards {
		total += s.pullShard(&s.shards[i], id, false)
	}
	return total
}

// quarantineShard pulls the ID's rules from one shard; it takes (and
// releases) that shard's write lock and bumps its version only on a hit.
func (s *Store) quarantineShard(sh *shard, id int) int {
	return s.pullShard(sh, id, true)
}

// pullShard removes the ID's rules from one shard's lookup structures.
// With quarantine set the victims also land in the quarantined list and
// their patterns are barred from reinstallation; without it the removal
// is clean (Remove).
func (s *Store) pullShard(sh *shard, id int, quarantine bool) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	type victim struct {
		pk string
		r  *Rule
	}
	var hits []victim
	for pk, r := range sh.byPattern {
		if r.ID == id {
			hits = append(hits, victim{pk, r})
		}
	}
	if len(hits) == 0 {
		return 0
	}
	// Canonical victim order: byPattern iteration is randomized, but the
	// quarantined list is externally visible (Quarantined), so sort.
	sort.Slice(hits, func(i, j int) bool { return hits[i].pk < hits[j].pk })
	for _, v := range hits {
		if !removeRule(sh.byKey, HashKey(v.r.Guest), v.r) {
			sh.inconsistent++
		}
		delete(sh.byPattern, v.pk)
		if quarantine {
			sh.quarantinedPat[v.pk] = true
			sh.quarantined = append(sh.quarantined, v.r)
		}
		sh.count--
		s.count.Add(-1)
	}
	// Removal can lower the longest installed pattern in this shard;
	// recompute so Freeze's exact maxLen stays right. (The store-wide
	// maxLenHint is deliberately left alone — see its comment.)
	sh.maxLen = 0
	for _, bucket := range sh.byKey {
		for _, r := range bucket {
			if len(r.Guest) > sh.maxLen {
				sh.maxLen = len(r.Guest)
			}
		}
	}
	sh.version++
	s.version.Add(1)
	return len(hits)
}

// Quarantined returns the quarantined rules in canonical (All-style)
// order.
func (s *Store) Quarantined() []*Rule {
	var out []*Rule
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out = append(out, sh.quarantined...)
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return patternKey(a.Guest) < patternKey(b.Guest)
	})
	return out
}

// IsQuarantined reports whether any rule with the given ID has been
// quarantined.
func (s *Store) IsQuarantined(id int) bool {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, r := range sh.quarantined {
			if r.ID == id {
				sh.mu.RUnlock()
				return true
			}
		}
		sh.mu.RUnlock()
	}
	return false
}

// Version returns the store-wide mutation counter. An Index whose
// Version() equals the store's is a faithful snapshot; a mismatch means
// rules were added, replaced, or quarantined after the freeze. The
// counter is a sum of per-shard mutation counts, so its value is only
// comparable between a store and its own snapshots — not across stores
// with different shard counts.
func (s *Store) Version() uint64 { return s.version.Load() }

// Count returns the number of installed rules.
func (s *Store) Count() int { return int(s.count.Load()) }

// MaxLen returns the longest guest pattern installed.
func (s *Store) MaxLen() int {
	maxLen := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if sh.maxLen > maxLen {
			maxLen = sh.maxLen
		}
		sh.mu.RUnlock()
	}
	return maxLen
}

// All returns the rules in a canonical order: by ID, with ties (IDs are
// only unique per Learner, and a store can hold rules from many) broken by
// source then guest pattern. The order is a total one, so serializing
// All() yields identical bytes no matter what order rules were inserted
// in — the determinism contract behind `rulelearn -jobs` and the
// byte-identical wire snapshots rules/dist serves.
func (s *Store) All() []*Rule {
	out := make([]*Rule, 0, s.Count())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, bucket := range sh.byKey {
			out = append(out, bucket...)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return patternKey(a.Guest) < patternKey(b.Guest)
	})
	return out
}

// Lookup finds a rule matching the exact window (same length), trying the
// bucket selected by the mean-of-opcodes key. Only the window's own shard
// is locked. Lookup and LongestMatch are the paper's §4 scheme as written:
// the engine translates through a frozen Index instead (see Freeze), and
// these two are the reference the differential tests hold it to.
func (s *Store) Lookup(window []arm.Instr) (*Rule, *Binding, bool) {
	if len(window) == 0 {
		return nil, nil, false
	}
	key := HashKey(window)
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, r := range sh.byKey[key] {
		if len(r.Guest) != len(window) {
			continue
		}
		if b, ok := r.Match(window); ok {
			return r, b, true
		}
	}
	return nil, nil, false
}

// LongestMatch implements §4's application scan: the longest contiguous
// window starting at position i of block that matches any rule. shortest
// window length is 1. Returns the match and its length, or ok=false.
func (s *Store) LongestMatch(block []arm.Instr, i int) (*Rule, *Binding, int, bool) {
	maxLen := len(block) - i
	if hint := int(s.maxLenHint.Load()); maxLen > hint {
		maxLen = hint
	}
	for l := maxLen; l >= 1; l-- {
		if r, b, ok := s.Lookup(block[i : i+l]); ok {
			return r, b, l, true
		}
	}
	return nil, nil, 0, false
}
