package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// TestIndexDifferential sweeps the randomized Index-vs-Store differential
// (the same body FuzzIndexMatchesStore explores) over fixed seeds, so the
// equivalence is exercised on every plain `go test` run, not only under
// -fuzz.
func TestIndexDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		runIndexDifferential(t, int64(seed), 4+seed%24)
	}
}

// ixLookup probes one exact window against a snapshot the way the engine
// does: through a scanner.
func ixLookup(ix *Index, window []arm.Instr) (*Rule, *Binding, bool) {
	return ix.NewBlockScanner(window).Match(0, len(window))
}

// TestFreezeVersioning: a snapshot is faithful while the store is
// untouched, and version drift — from inserts and from §6.1 replacements
// alike — is detectable through Version().
func TestFreezeVersioning(t *testing.T) {
	s := NewStore()
	if got := s.Version(); got != 0 {
		t.Fatalf("fresh store version %d", got)
	}
	ix := s.Freeze()
	if ix.Version() != 0 || ix.Count() != 0 {
		t.Fatalf("empty snapshot version %d count %d", ix.Version(), ix.Count())
	}
	if _, _, _, ok := ix.NewBlockScanner([]arm.Instr{arm.MustParse("mov r1, #4")}).LongestMatch(0); ok {
		t.Fatal("empty snapshot matched")
	}

	s.Add(immRule(1, 10))
	if s.Version() == ix.Version() {
		t.Fatal("Add did not bump version")
	}
	ix = s.Freeze()
	v := s.Version()

	// Dedup rejection mutates nothing and must not bump the version.
	if s.Add(immRule(2, 10)) {
		t.Fatal("duplicate pattern accepted")
	}
	if s.Version() != v {
		t.Fatal("rejected Add bumped version")
	}

	// A replacement (same pattern, fewer host instructions) mutates the
	// buckets, so it must invalidate outstanding snapshots.
	long := immRule(3, 11)
	long.Host = append(long.Host, x86.MustParse("movl $11, %eax"))
	s.Add(long)
	v = s.Version()
	better := immRule(4, 11)
	if !s.Add(better) {
		t.Fatal("better rule rejected")
	}
	if s.Version() == v {
		t.Fatal("replacement did not bump version")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ix = s.Freeze()
	window := []arm.Instr{arm.MustParse("mov r9, #11")}
	r, _, ok := ixLookup(ix, window)
	if !ok || r != better {
		t.Fatalf("snapshot lookup returned %v, want the replacement", r)
	}
}

// TestFreezeStitchCache: a refreeze of an untouched store returns the
// identical Index (the stitched-index fast path — no dense-table
// rebuild), while any shard mutation forces a fresh stitch whose contents
// reflect the change.
func TestFreezeStitchCache(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Add(immRule(i+1, 20+i))
	}
	first := s.Freeze()
	for i := 0; i < 3; i++ {
		if ix := s.Freeze(); ix != first {
			t.Fatalf("refreeze %d of an untouched store rebuilt the index", i)
		}
	}

	// A mutation must invalidate the cache: the next freeze stitches a new
	// Index carrying the new version and the new rule.
	s.Add(immRule(100, 90))
	second := s.Freeze()
	if second == first {
		t.Fatal("freeze after Add returned the stale cached index")
	}
	if second.Version() != s.Version() || second.Count() != first.Count()+1 {
		t.Fatalf("restitched index version %d count %d, want version %d count %d",
			second.Version(), second.Count(), s.Version(), first.Count()+1)
	}
	window := []arm.Instr{arm.MustParse("mov r2, #90")}
	if _, _, ok := ixLookup(second, window); !ok {
		t.Fatal("restitched index does not see the new rule")
	}
	// And the new stitch is itself cached.
	if ix := s.Freeze(); ix != second {
		t.Fatal("refreeze after the restitch rebuilt again")
	}
	// The first snapshot stays immutable and usable: concurrent holders of
	// a pre-mutation Index are unaffected by later freezes.
	if _, _, ok := ixLookup(first, window); ok {
		t.Fatal("old snapshot sees a rule added after it was frozen")
	}
}

// TestScannerKeysMatchHashKey pins the O(1) prefix-sum window key against
// the reference HashKey on every window of random blocks.
func TestScannerKeysMatchHashKey(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ix := NewStore().Freeze()
	for trial := 0; trial < 20; trial++ {
		block := genGuestBlock(r, 5+r.Intn(60))
		sc := ix.NewBlockScanner(block)
		for i := range block {
			for l := 1; i+l <= len(block); l++ {
				got := (sc.pre[i+l] - sc.pre[i]) / l
				if want := HashKey(block[i : i+l]); got != want {
					t.Fatalf("trial %d window [%d,%d): prefix key %d, HashKey %d",
						trial, i, i+l, got, want)
				}
			}
		}
	}
}

// TestIndexLenMask: the per-first-opcode length mask must skip exactly
// the lengths that cannot match, never a length that holds a rule.
func TestIndexLenMask(t *testing.T) {
	s := NewStore()
	s.Add(&Rule{
		ID:    1,
		Guest: arm.MustParseSeq("add r0, r0, r1; sub r0, r0, r2"),
		Host:  []x86.Instr{x86.MustParse("addl %ecx, %eax")},
		// Parameters: r0→0, r1→1, r2→2 by first appearance.
		NumRegParams: 3,
		Source:       "mask:2",
	})
	s.Add(immRule(2, 5))
	ix := s.Freeze()
	if !ix.hasLen(arm.ADD, 2) {
		t.Fatal("mask lost the installed add-first length-2 rule")
	}
	if ix.hasLen(arm.ADD, 1) {
		t.Fatal("mask claims a length-1 add rule that was never installed")
	}
	if !ix.hasLen(arm.MOV, 1) {
		t.Fatal("mask lost the installed mov-first length-1 rule")
	}
	if ix.hasLen(arm.SUB, 2) {
		t.Fatal("mask claims a sub-first rule; the rule starts with add")
	}
	sc := ix.NewBlockScanner(arm.MustParseSeq("add r4, r4, r5; sub r4, r4, r6; mov r7, #5"))
	if _, _, l, ok := sc.LongestMatch(0); !ok || l != 2 {
		t.Fatalf("LongestMatch at 0: len %d ok %v, want 2 true", l, ok)
	}
	if _, _, l, ok := sc.LongestMatch(2); !ok || l != 1 {
		t.Fatalf("LongestMatch at 2: len %d ok %v, want 1 true", l, ok)
	}
	if _, _, _, ok := sc.LongestMatch(1); ok {
		t.Fatal("LongestMatch at 1 matched; no rule starts with sub")
	}
	// The mask also clamps the scan: no add-first rule is longer than 2,
	// and nothing starts with sub.
	if got := sc.MaxLen(0); got != 2 {
		t.Fatalf("MaxLen at 0 = %d, want 2", got)
	}
	if got := sc.MaxLen(1); got != 0 {
		t.Fatalf("MaxLen at 1 = %d, want 0", got)
	}
}

// TestStoreReplaceInvariants drives the §6.1 replace path serially and
// checks the indexes stay exact (the concurrent variant lives in
// store_concurrent_test.go).
func TestStoreReplaceInvariants(t *testing.T) {
	s := NewStore()
	for n := 0; n < 8; n++ {
		worse := immRule(100+n, n)
		worse.Host = append(worse.Host, x86.MustParse("movl %eax, %ebx"), x86.MustParse("movl %ebx, %eax"))
		if !s.Add(worse) {
			t.Fatalf("initial rule %d rejected", n)
		}
	}
	for n := 0; n < 8; n++ {
		if !s.Add(immRule(200+n, n)) {
			t.Fatalf("better rule %d rejected", n)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("count %d after replacements, want 8", got)
	}
	for n := 0; n < 8; n++ {
		r, _, ok := s.Lookup([]arm.Instr{arm.MustParse(fmt.Sprintf("mov r2, #%d", n))})
		if !ok || len(r.Host) != 1 {
			t.Fatalf("pattern %d: winner has %d host instrs, want the 1-instr replacement", n, len(r.Host))
		}
	}
}
