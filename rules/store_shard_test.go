package rules

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// opRule builds a one-instruction rule whose guest opcode picks its
// shard: a single-instruction pattern's mean key IS its opcode value, so
// "and" (op 0) lands in shard 0, "add" (op 4) in shard 4, and so on.
func opRule(id int, op string, n int) *Rule {
	return &Rule{
		ID:           id,
		Guest:        []arm.Instr{arm.MustParse(fmt.Sprintf("%s r0, r0, #%d", op, n))},
		Host:         []x86.Instr{x86.MustParse("movl $1, %eax")},
		NumRegParams: 1,
		Source:       fmt.Sprintf("shard:%s:%d", op, n),
	}
}

// TestStoreQuarantineShardConfined pins the tentpole's blast-radius
// contract: a quarantine whose victim lives in shard A bumps A's version
// and invalidates A's cached freeze snapshot, while shard B's version and
// cached snapshot are untouched — so an engine refreezing after the
// quarantine re-copies one shard and stitches the other fifteen from
// cache.
func TestStoreQuarantineShardConfined(t *testing.T) {
	s := NewStore()
	if s.Shards() < 2 {
		t.Fatalf("default store has %d shards, need >= 2", s.Shards())
	}
	// "and" → mean 0 → shard 0; "add" → mean 4 → shard 4.
	ruleA := opRule(1, "and", 7)
	ruleB := opRule(2, "add", 7)
	shardA := int(arm.AND) % s.Shards()
	shardB := int(arm.ADD) % s.Shards()
	if !s.Add(ruleA) || !s.Add(ruleB) {
		t.Fatal("setup Add rejected")
	}
	ix0 := s.Freeze() // populates both shards' snap caches
	vA, vB := s.ShardVersion(shardA), s.ShardVersion(shardB)
	snapA0 := s.shards[shardA].snap.Load()
	snapB0 := s.shards[shardB].snap.Load()
	if snapA0 == nil || snapB0 == nil {
		t.Fatal("Freeze did not populate the shard snap caches")
	}

	if n := s.Quarantine(ruleA.ID); n != 1 {
		t.Fatalf("Quarantine = %d, want 1", n)
	}
	if got := s.ShardVersion(shardA); got == vA {
		t.Error("quarantine did not bump the victim shard's version")
	}
	if got := s.ShardVersion(shardB); got != vB {
		t.Errorf("quarantine bumped bystander shard version %d -> %d", vB, got)
	}

	ix1 := s.Freeze()
	if s.shards[shardB].snap.Load() != snapB0 {
		t.Error("refreeze rebuilt the bystander shard's snapshot")
	}
	if s.shards[shardA].snap.Load() == snapA0 {
		t.Error("refreeze served the victim shard's stale snapshot")
	}

	// The stale and fresh snapshots must reflect the quarantine exactly.
	winA := []arm.Instr{arm.MustParse("and r3, r3, #7")}
	winB := []arm.Instr{arm.MustParse("add r3, r3, #7")}
	if _, _, ok := ixLookup(ix0, winA); !ok {
		t.Error("pre-quarantine snapshot lost the victim rule")
	}
	if _, _, ok := ixLookup(ix1, winA); ok {
		t.Error("post-quarantine snapshot still serves the victim rule")
	}
	for _, ix := range []*Index{ix0, ix1} {
		if _, _, ok := ixLookup(ix, winB); !ok {
			t.Error("bystander rule missing from a snapshot")
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentShardConfinement is the -race variant: quarantine
// traffic hammering shard A must leave concurrent shard-B readers and
// freezers undisturbed, and B's version must come out exactly where it
// started.
func TestStoreConcurrentShardConfinement(t *testing.T) {
	const victims = 16
	s := NewStore()
	shardB := int(arm.ADD) % s.Shards()
	// Shard A (mean 0): victims to quarantine. Shard B (mean 4): bystanders.
	for n := 0; n < victims; n++ {
		if !s.Add(opRule(n+1, "and", n)) {
			t.Fatalf("victim %d rejected", n)
		}
	}
	for n := 0; n < 8; n++ {
		if !s.Add(opRule(100+n, "add", n)) {
			t.Fatalf("bystander %d rejected", n)
		}
	}
	s.Freeze()
	vB := s.ShardVersion(shardB)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < victims; i++ {
				s.Quarantine(i + 1)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				window := []arm.Instr{arm.MustParse(fmt.Sprintf("add r2, r2, #%d", i%8))}
				if _, _, ok := s.Lookup(window); !ok {
					t.Errorf("bystander pattern %d lost during quarantine storm", i%8)
					return
				}
				ix := s.Freeze()
				if _, _, ok := ixLookup(ix, window); !ok {
					t.Errorf("bystander pattern %d missing from snapshot", i%8)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.ShardVersion(shardB); got != vB {
		t.Errorf("bystander shard version moved %d -> %d under shard-A quarantines", vB, got)
	}
	if got := s.Count(); got != 8 {
		t.Errorf("count %d after quarantines, want 8", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runShardDifferential drives an identical random add/quarantine/freeze
// interleaving into a sharded store and a single-lock (1-shard) store.
// The two must agree on every observable: accept/reject decisions,
// counts, canonical marshal bytes, quarantine results, and — after a
// final freeze — byte-identical match results on the generating blocks.
// Rule pointers are shared between the stores, so result comparison is
// pointer-exact.
func runShardDifferential(t *testing.T, seed int64, nOps uint8) {
	r := rand.New(rand.NewSource(seed))
	block := genGuestBlock(r, 20+r.Intn(24))
	decoy := genGuestBlock(r, 16)
	sharded := NewStoreShards(DefaultShards)
	single := NewStoreShards(1)

	id := 1
	var installed []int
	ops := int(nOps)%48 + 16
	for op := 0; op < ops; op++ {
		switch r.Intn(7) {
		case 0, 1, 2, 3:
			src := block
			if r.Intn(3) == 0 {
				src = decoy
			}
			l := 1 + r.Intn(5)
			if l > len(src) {
				continue
			}
			i := r.Intn(len(src) - l + 1)
			rule, ok := parameterize(src[i:i+l], 1+r.Intn(4), id, r.Intn(2) == 0)
			if !ok {
				continue
			}
			okA, okB := sharded.Add(rule), single.Add(rule)
			if okA != okB {
				t.Fatalf("seed %d op %d: Add(%d) sharded=%v single=%v", seed, op, id, okA, okB)
			}
			if okA {
				installed = append(installed, id)
			}
			id++
		case 4:
			if len(installed) == 0 {
				continue
			}
			victim := installed[r.Intn(len(installed))]
			nA, nB := sharded.Quarantine(victim), single.Quarantine(victim)
			if nA != nB {
				t.Fatalf("seed %d op %d: Quarantine(%d) sharded=%d single=%d", seed, op, victim, nA, nB)
			}
		default:
			// Interleaved freezes exercise the per-shard snap cache across
			// mutations; the snapshots must stay internally usable.
			ixA, ixB := sharded.Freeze(), single.Freeze()
			i := r.Intn(len(block))
			ra, ba, la, oka := ixA.NewBlockScanner(block).LongestMatch(i)
			rb, bb, lb, okb := ixB.NewBlockScanner(block).LongestMatch(i)
			if !sameMatch(matchResult{ra, ba, la, oka}, matchResult{rb, bb, lb, okb}) {
				t.Fatalf("seed %d op %d: interleaved snapshots diverge at pos %d", seed, op, i)
			}
		}
	}

	for _, s := range []*Store{sharded, single} {
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if sharded.Count() != single.Count() || sharded.MaxLen() != single.MaxLen() {
		t.Fatalf("seed %d: count/maxLen %d/%d vs %d/%d", seed,
			sharded.Count(), sharded.MaxLen(), single.Count(), single.MaxLen())
	}
	var bufA, bufB bytes.Buffer
	if err := WriteRules(&bufA, sharded.All()); err != nil {
		t.Fatal(err)
	}
	if err := WriteRules(&bufB, single.All()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("seed %d: canonical marshal diverges between sharded and single-lock store", seed)
	}
	qA, qB := sharded.Quarantined(), single.Quarantined()
	if len(qA) != len(qB) {
		t.Fatalf("seed %d: %d vs %d quarantined", seed, len(qA), len(qB))
	}
	for i := range qA {
		if qA[i] != qB[i] {
			t.Fatalf("seed %d: quarantined[%d] diverges", seed, i)
		}
	}

	ixA, ixB := sharded.Freeze(), single.Freeze()
	if ixA.Count() != ixB.Count() || ixA.MaxLen() != ixB.MaxLen() {
		t.Fatalf("seed %d: snapshot metadata diverges", seed)
	}
	for _, blk := range [][]arm.Instr{block, decoy} {
		scA, scB := ixA.NewBlockScanner(blk), ixB.NewBlockScanner(blk)
		// Each snapshot against its own store (scanner LongestMatch and
		// every exact window), then the two stores against each other.
		checkIndexAgainstStore(t, sharded, scA, blk)
		checkIndexAgainstStore(t, single, scB, blk)
		for i := range blk {
			want := func(r *Rule, b *Binding, l int, ok bool) matchResult { return matchResult{r, b, l, ok} }
			if got, exp := want(sharded.LongestMatch(blk, i)), want(single.LongestMatch(blk, i)); !sameMatch(got, exp) {
				t.Fatalf("seed %d pos %d: locked LongestMatch sharded %+v single %+v", seed, i, got, exp)
			}
			for l := 1; l <= 6 && i+l <= len(blk); l++ {
				ra, ba, oka := scA.Match(i, l)
				rb, bb, okb := scB.Match(i, l)
				if got, exp := (matchResult{ra, ba, l, oka}), (matchResult{rb, bb, l, okb}); !sameMatch(got, exp) {
					t.Fatalf("seed %d pos %d len %d: Match sharded %+v single %+v", seed, i, l, got, exp)
				}
			}
		}
	}
}

// TestShardedStoreMatchesSingle runs the sharded/single-lock differential
// on fixed seeds (the fuzz target's regression net).
func TestShardedStoreMatchesSingle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260807} {
		runShardDifferential(t, seed, 32)
	}
}

// FuzzShardedStoreMatchesSingle feeds random add/quarantine/freeze
// interleavings through runShardDifferential: whatever the operation mix,
// shard count must be unobservable in every store API and in the frozen
// snapshots.
func FuzzShardedStoreMatchesSingle(f *testing.F) {
	for _, seed := range []int64{1, 7, 20260807} {
		f.Add(seed, uint8(16))
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed int64, nOps uint8) {
		runShardDifferential(t, seed, nOps)
	})
}
