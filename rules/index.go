package rules

import (
	"math/bits"
	"time"

	"dbtrules/arm"
)

// Index is an immutable snapshot of a Store built for the translation
// hot loop: every lookup structure is frozen at Freeze time, so a
// BlockScanner over it matches without taking any lock. It is the only
// lookup path the engine translates through. The match results are
// byte-identical to Store.Lookup / Store.LongestMatch on the same rule
// set (the bucket order — which decides ties between same-length rules —
// is copied verbatim); the differential tests hold it to that.
//
// Beyond lock elision the Index adds two §7-style accelerations:
//
//   - lenMask: per first-opcode bitmask of the guest-pattern lengths
//     installed for that opcode. A longest-match scan probes only lengths
//     that can possibly hold a rule (a rule's pattern matches a window
//     only if the first opcodes agree), instead of hashing every window
//     length at every block position.
//
//   - BlockScanner: prefix sums of the opcodes over a guest block, making
//     any window's mean-of-opcodes key an O(1) subtraction instead of an
//     O(length) rescan.
type Index struct {
	version uint64
	count   int
	maxLen  int
	// dense is the (mean, length, firstOp) candidate table, laid out as a
	// flat array indexed (mean*lenDim + length-1)*opDim + firstOp — a
	// bounds check and one multiply-add instead of hashing a struct key.
	// Store.Lookup probes the coarse byKey[mean] bucket filtered to the
	// window's length, and can only ever match rules whose first opcode
	// equals the window's (Match rejects at instruction 0 otherwise). A
	// cell holds exactly that viable subsequence of the coarse bucket, in
	// bucket order — same candidates, same tie order, same winner.
	//
	// Within a cell, candidates are grouped by the positional fingerprint
	// of their full (Op, Cond, SetFlags) sequence: a rule can only match a
	// window whose instruction sequence agrees on all three fields at
	// every position, so a probe Matches only the group whose fingerprint
	// equals the window's. Skipping is exact (equal sequences hash equal);
	// a hash collision merely lands unrelated rules in the same group,
	// where Match still rejects them. Grouping keeps bucket insertion
	// order within a group, which is the relative order of all candidates
	// that can possibly match a given window — ties resolve as before.
	dense                  [][]fpGroup
	meanDim, lenDim, opDim int
	// lenMask[op] bit l-1 is set when a rule of guest length l whose
	// pattern starts with opcode op is installed. Lengths above 64 (none
	// occur in practice; MaxTBLen caps windows at 64) fall back to
	// always-probe via hasLen.
	lenMask [256]uint64
}

// fineKey names one dense cell of an Index.
type fineKey struct {
	mean    int
	length  int
	firstOp arm.Op
}

// shardSnap is one shard's frozen contribution to an Index: its coarse
// buckets split by fineKey (fresh slices; the rules they point at are
// immutable once installed) plus the shard's exact count and maxLen,
// stamped with the shard version it reflects. A snap is immutable after
// construction, so Freeze can stitch from it lock-free and cache it on
// the shard for the next freeze.
type shardSnap struct {
	version uint64
	count   int
	maxLen  int
	fine    map[fineKey][]*Rule
}

// buildSnap captures the shard's current contents. The caller holds at
// least sh.mu.RLock.
func (sh *shard) buildSnap() *shardSnap {
	snap := &shardSnap{
		version: sh.version,
		count:   sh.count,
		maxLen:  sh.maxLen,
		fine:    make(map[fineKey][]*Rule, len(sh.byKey)),
	}
	// Walking each coarse bucket in order keeps every fine list in the
	// relative order Store.Lookup tries its candidates.
	for mean, bucket := range sh.byKey {
		for _, r := range bucket {
			k := fineKey{mean: mean, length: len(r.Guest), firstOp: r.Guest[0].Op}
			snap.fine[k] = append(snap.fine[k], r)
		}
	}
	return snap
}

// Freeze snapshots the store into an immutable lock-free Index. The
// snapshot carries the store's version counter, so callers can detect
// staleness (Store.Version() moved on) and refreeze.
//
// Freeze takes every shard's read lock (in shard order) only long enough
// to capture per-shard snapshots, reusing each shard's cached snap when
// its version is unchanged — so a refreeze after a shard-confined
// mutation (an Add, or a Quarantine whose victims live in one shard)
// copies only the dirty shard and stitches the rest from cache. The
// stitch itself runs after the locks drop. Because a fine key's mean
// decides its shard, each dense cell is filled by exactly one shard's
// buckets in that shard's Add order: the resulting Index is identical to
// one frozen from a single-lock store holding the same rules.
func (s *Store) Freeze() *Index {
	tel := s.telArmed()
	if tel != nil {
		t0 := time.Now()
		defer func() {
			tel.freezes.Inc()
			tel.freezeNS.ObserveSince(t0)
		}()
	}
	snaps := make([]*shardSnap, len(s.shards))
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	// All writers are excluded while we hold every read lock, so the
	// global counter is exactly the sum of the shard states we snapshot.
	version := s.version.Load()
	for i := range s.shards {
		sh := &s.shards[i]
		snap := sh.snap.Load()
		if snap == nil || snap.version != sh.version {
			snap = sh.buildSnap()
			// Concurrent freezers may both rebuild and race this store;
			// the snaps are equivalent (same shard version), so last
			// write winning is harmless.
			sh.snap.Store(snap)
		}
		snaps[i] = snap
	}
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}

	// Stitch fast path: when every shard snapshot is the one the last
	// stitched Index was built from, the rule set is byte-identical and the
	// cached Index (immutable, safe to share) is the answer. An Index is
	// only ever cached with the version stamped from the same snapshot set,
	// so the version check is a belt-and-braces guard against a concurrent
	// freezer racing the cache store.
	if cached := s.stitched.Load(); cached != nil && cached.ix.version == version {
		same := len(cached.snaps) == len(snaps)
		for i := 0; same && i < len(snaps); i++ {
			same = cached.snaps[i] == snaps[i]
		}
		if same {
			if tel != nil {
				tel.freezeReuses.Inc()
			}
			return cached.ix
		}
	}

	ix := &Index{version: version}
	fineKeys := 0
	for _, sn := range snaps {
		ix.count += sn.count
		if sn.maxLen > ix.maxLen {
			ix.maxLen = sn.maxLen
		}
		fineKeys += len(sn.fine)
		for k := range sn.fine {
			if k.mean >= ix.meanDim {
				ix.meanDim = k.mean + 1
			}
			if int(k.firstOp) >= ix.opDim {
				ix.opDim = int(k.firstOp) + 1
			}
		}
	}
	ix.lenDim = ix.maxLen
	if fineKeys > 0 {
		ix.dense = make([][]fpGroup, ix.meanDim*ix.lenDim*ix.opDim)
		for _, sn := range snaps {
			for k, bucket := range sn.fine {
				cell := &ix.dense[(k.mean*ix.lenDim+k.length-1)*ix.opDim+int(k.firstOp)]
				for _, r := range bucket {
					fp := seqFingerprint(r.Guest)
					g := -1
					for gi := range *cell {
						if (*cell)[gi].fp == fp {
							g = gi
							break
						}
					}
					if g < 0 {
						*cell = append(*cell, fpGroup{fp: fp})
						g = len(*cell) - 1
					}
					(*cell)[g].rules = append((*cell)[g].rules, r)
				}
			}
		}
	}
	// Every installed rule appears in exactly one fine bucket whose key
	// carries its (firstOp, length).
	for _, sn := range snaps {
		for k := range sn.fine {
			if k.length >= 1 && k.length <= 64 {
				ix.lenMask[k.firstOp] |= 1 << (k.length - 1)
			}
		}
	}
	s.stitched.Store(&stitchedIndex{snaps: snaps, ix: ix})
	return ix
}

// Version returns the Store.Version() value the snapshot was taken at.
func (ix *Index) Version() uint64 { return ix.version }

// Count returns the number of rules in the snapshot.
func (ix *Index) Count() int { return ix.count }

// MaxLen returns the longest guest pattern in the snapshot.
func (ix *Index) MaxLen() int { return ix.maxLen }

// hasLen reports whether any installed rule of guest length l starts
// with opcode op. It is exact for l ≤ 64 and conservatively true above.
func (ix *Index) hasLen(op arm.Op, l int) bool {
	if l > 64 {
		return true
	}
	return ix.lenMask[op]&(1<<(l-1)) != 0
}

// fpGroup is one fingerprint class of candidates inside a dense cell.
type fpGroup struct {
	fp    uint64
	rules []*Rule
}

// fpBase is the (odd, hence invertible mod 2^64) base of the positional
// sequence fingerprint; fpInv is its multiplicative inverse.
const fpBase uint64 = 0x9E3779B97F4A7C15

var fpInv = func() uint64 {
	// Newton iteration doubles correct low bits each round; five rounds
	// cover 64 bits starting from x ≡ B⁻¹ (mod 2³) for odd B.
	x := fpBase
	for i := 0; i < 5; i++ {
		x *= 2 - fpBase*x
	}
	return x
}()

// instrFingerprint packs the fields Rule.Match compares unconditionally
// at every position.
func instrFingerprint(in arm.Instr) uint64 {
	fp := uint64(in.Op)<<6 | uint64(in.Cond)<<1
	if in.SetFlags {
		fp |= 1
	}
	return fp
}

// seqFingerprint is the positional hash Σ instrFingerprint(w[j])·B^j of a
// window or guest pattern.
func seqFingerprint(w []arm.Instr) uint64 {
	var fp uint64
	pow := uint64(1)
	for _, in := range w {
		fp += instrFingerprint(in) * pow
		pow *= fpBase
	}
	return fp
}

// lookupKeyed probes one dense cell given the window's mean-of-opcodes
// key and sequence fingerprint (both O(1) via BlockScanner prefix sums).
// See the dense field comment for why the candidate sequence — and hence
// which rule wins a tie — is identical to Store.Lookup. A window whose
// key falls outside the table dims cannot match any installed rule.
func (ix *Index) lookupKeyed(window []arm.Instr, mean int, fp uint64) (*Rule, *Binding, bool) {
	l, op := len(window), int(window[0].Op)
	if mean >= ix.meanDim || l > ix.lenDim || op >= ix.opDim {
		return nil, nil, false
	}
	cell := ix.dense[(mean*ix.lenDim+l-1)*ix.opDim+op]
	for gi := range cell {
		if cell[gi].fp != fp {
			continue
		}
		for _, r := range cell[gi].rules {
			if b, ok := r.Match(window); ok {
				return r, b, true
			}
		}
	}
	return nil, nil, false
}

// clampLens bounds the candidate window lengths at block position i: the
// block remainder, the longest installed pattern, and (when exact) the
// highest bit of the first-opcode length mask.
func (ix *Index) clampLens(block []arm.Instr, i int) int {
	maxLen := len(block) - i
	if maxLen > ix.maxLen {
		maxLen = ix.maxLen
	}
	if ix.maxLen <= 64 && maxLen > 0 {
		if top := bits.Len64(ix.lenMask[block[i].Op]); maxLen > top {
			maxLen = top // no rule for this first opcode is longer
		}
	}
	return maxLen
}

// BlockScanner matches rule windows against one guest block with O(1)
// mean-of-opcodes keys: Reset precomputes prefix sums of the opcodes, so
// Match(i, l) never rescans the window. A scanner is cheap to Reset per
// block and is not safe for concurrent use (the Index it wraps is).
type BlockScanner struct {
	ix    *Index
	block []arm.Instr
	pre   []int    // pre[k] = sum of block[:k] opcodes
	fpre  []uint64 // fpre[k] = Σ_{j<k} instrFingerprint(block[j])·B^j
	ipow  []uint64 // ipow[i] = B^-i; (fpre[i+l]-fpre[i])·ipow[i] keys window (i,l)
}

// NewBlockScanner returns a scanner over block backed by the snapshot.
func (ix *Index) NewBlockScanner(block []arm.Instr) *BlockScanner {
	sc := &BlockScanner{ix: ix}
	sc.Reset(block)
	return sc
}

// Reset points the scanner at a new block, reusing the prefix-sum
// storage.
func (sc *BlockScanner) Reset(block []arm.Instr) {
	sc.block = block
	if cap(sc.pre) < len(block)+1 {
		sc.pre = make([]int, len(block)+1)
		sc.fpre = make([]uint64, len(block)+1)
		sc.ipow = make([]uint64, len(block)+1)
	}
	sc.pre = sc.pre[:len(block)+1]
	sc.fpre = sc.fpre[:len(block)+1]
	sc.ipow = sc.ipow[:len(block)+1]
	sum := 0
	fp, pow, inv := uint64(0), uint64(1), uint64(1)
	sc.pre[0], sc.fpre[0], sc.ipow[0] = 0, 0, 1
	for k, in := range block {
		sum += int(in.Op)
		fp += instrFingerprint(in) * pow
		pow *= fpBase
		inv *= fpInv
		sc.pre[k+1], sc.fpre[k+1], sc.ipow[k+1] = sum, fp, inv
	}
}

// MaxLen bounds the candidate window lengths at block position i (see
// Index.clampLens). Window lengths above the returned value cannot match
// any installed rule.
func (sc *BlockScanner) MaxLen(i int) int { return sc.ix.clampLens(sc.block, i) }

// Match probes the window of length l at position i, identically to
// Store.Lookup on that window. The mean key is one subtraction; the
// sequence fingerprint is one subtraction and one multiply.
func (sc *BlockScanner) Match(i, l int) (*Rule, *Binding, bool) {
	if l < 1 || i+l > len(sc.block) {
		return nil, nil, false
	}
	if !sc.ix.hasLen(sc.block[i].Op, l) {
		return nil, nil, false
	}
	return sc.ix.lookupKeyed(sc.block[i:i+l],
		(sc.pre[i+l]-sc.pre[i])/l, (sc.fpre[i+l]-sc.fpre[i])*sc.ipow[i])
}

// LongestMatch is Store.LongestMatch at position i with O(1) keys.
func (sc *BlockScanner) LongestMatch(i int) (*Rule, *Binding, int, bool) {
	for l := sc.MaxLen(i); l >= 1; l-- {
		if r, b, ok := sc.Match(i, l); ok {
			return r, b, l, true
		}
	}
	return nil, nil, 0, false
}
