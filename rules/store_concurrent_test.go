package rules

import (
	"fmt"
	"sync"
	"testing"

	"dbtrules/arm"
	"dbtrules/x86"
)

// immRule builds a distinct one-instruction rule: mov reg0, #n -> movl $n, reg0.
// The literal immediate keeps every n a distinct guest pattern.
func immRule(id, n int) *Rule {
	return &Rule{
		ID:           id,
		Guest:        []arm.Instr{arm.MustParse(fmt.Sprintf("mov r0, #%d", n))},
		Host:         []x86.Instr{x86.MustParse(fmt.Sprintf("movl $%d, %%eax", n))},
		NumRegParams: 1,
		Source:       fmt.Sprintf("conc:%d", n),
	}
}

// TestStoreConcurrentAddLookup hammers one store from parallel inserters
// (as the -jobs learning pipeline does) and parallel readers (as
// translation threads do). Run under -race this gates the store's locking;
// the final state must contain exactly the distinct patterns.
func TestStoreConcurrentAddLookup(t *testing.T) {
	const (
		workers  = 8
		patterns = 64
	)
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < patterns; n++ {
				// Every worker inserts every pattern: all but one insert
				// per pattern must dedup.
				s.Add(immRule(w*patterns+n+1, n))
				if w%2 == 0 {
					window := []arm.Instr{arm.MustParse(fmt.Sprintf("mov r5, #%d", n))}
					s.Lookup(window)
					s.LongestMatch(window, 0)
					_ = s.Count()
					_ = s.MaxLen()
				}
				if w%4 == 1 && n%8 == 0 {
					// Snapshots race with inserts: Freeze must see a
					// consistent store and stay usable afterwards.
					ix := s.Freeze()
					ix.NewBlockScanner([]arm.Instr{arm.MustParse(fmt.Sprintf("mov r5, #%d", n))}).LongestMatch(0)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Count(); got != patterns {
		t.Fatalf("store has %d rules after concurrent dedup, want %d", got, patterns)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.All()); got != patterns {
		t.Fatalf("All() returned %d rules, want %d", got, patterns)
	}
	for n := 0; n < patterns; n++ {
		if _, _, ok := s.Lookup([]arm.Instr{arm.MustParse(fmt.Sprintf("mov r3, #%d", n))}); !ok {
			t.Fatalf("pattern %d missing after concurrent insert", n)
		}
	}
}

// immRuleHost is immRule with an explicit host length, to drive the
// §6.1 fewest-host-instructions replacement path.
func immRuleHost(id, n, hostLen int) *Rule {
	r := immRule(id, n)
	for len(r.Host) < hostLen {
		r.Host = append(r.Host, x86.MustParse("movl %eax, %eax"))
	}
	return r
}

// TestStoreConcurrentReplace hammers the Add replace path: workers race
// to install rules for the same guest patterns with different host
// lengths. Whatever the interleaving, the store must converge on the
// fewest-host-instructions winner per pattern with exact counts and
// internally consistent buckets (CheckInvariants — the assert-and-report
// companion of the replace path's bucket removal).
func TestStoreConcurrentReplace(t *testing.T) {
	const (
		workers  = 8
		patterns = 24
	)
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker proposes a different host length for every
			// pattern; insertion order varies per worker so replacements
			// happen in both directions.
			for k := 0; k < patterns; k++ {
				n := k
				if w%2 == 1 {
					n = patterns - 1 - k
				}
				s.Add(immRuleHost(w*patterns+n+1, n, 1+(w+n)%workers))
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != patterns {
		t.Fatalf("store has %d rules, want %d", got, patterns)
	}
	for n := 0; n < patterns; n++ {
		r, _, ok := s.Lookup([]arm.Instr{arm.MustParse(fmt.Sprintf("mov r1, #%d", n))})
		if !ok {
			t.Fatalf("pattern %d missing", n)
		}
		// Host lengths offered were 1+(w+n)%workers over all w, so the
		// minimum — length 1 — always exists and must have won.
		if len(r.Host) != 1 {
			t.Fatalf("pattern %d: winner has %d host instrs, want 1", n, len(r.Host))
		}
	}
	// The survivors must also be what a frozen snapshot serves.
	ix := s.Freeze()
	for n := 0; n < patterns; n++ {
		r, _, ok := ixLookup(ix, []arm.Instr{arm.MustParse(fmt.Sprintf("mov r8, #%d", n))})
		if !ok || len(r.Host) != 1 {
			t.Fatalf("snapshot pattern %d: ok=%v hostLen=%d", n, ok, len(r.Host))
		}
	}
}

// TestStoreQuarantine covers the quarantine lifecycle on one goroutine:
// removal from every lookup path, the Add bar on the quarantined pattern,
// the version bump that forces engines to refreeze, and idempotence.
func TestStoreQuarantine(t *testing.T) {
	s := NewStore()
	for n := 0; n < 8; n++ {
		s.Add(immRule(n+1, n))
	}
	v0 := s.Version()
	window := []arm.Instr{arm.MustParse("mov r2, #3")}
	if _, _, ok := s.Lookup(window); !ok {
		t.Fatal("victim pattern not installed")
	}
	if got := s.Quarantine(4); got != 1 {
		t.Fatalf("Quarantine removed %d rules, want 1", got)
	}
	if s.Version() == v0 {
		t.Error("quarantine did not bump the store version")
	}
	if _, _, ok := s.Lookup(window); ok {
		t.Error("quarantined rule still matches via Lookup")
	}
	if _, _, ok := ixLookup(s.Freeze(), window); ok {
		t.Error("quarantined rule still matches via a fresh snapshot")
	}
	if s.Count() != 7 {
		t.Errorf("count %d after quarantine, want 7", s.Count())
	}
	if !s.IsQuarantined(4) || len(s.Quarantined()) != 1 {
		t.Error("quarantine bookkeeping missing the rule")
	}
	if s.Add(immRule(99, 3)) {
		t.Error("Add reinstalled a quarantined pattern")
	}
	if got := s.Quarantine(4); got != 0 {
		t.Errorf("second Quarantine removed %d rules, want 0", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentQuarantineFreeze hammers the quarantine/refreeze path
// under -race: writers quarantine rules while readers freeze snapshots and
// run lookups, as a faulting engine does concurrently with translation
// threads on a shared store. Every snapshot must be internally usable and
// the final state exact.
func TestStoreConcurrentQuarantineFreeze(t *testing.T) {
	const (
		patterns    = 64
		quarantines = 16
		readers     = 6
	)
	s := NewStore()
	for n := 0; n < patterns; n++ {
		s.Add(immRule(n+1, n))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Both writers quarantine the same IDs: the second call per ID
			// must be a harmless no-op whatever the interleaving.
			for i := 0; i < quarantines; i++ {
				s.Quarantine(i*3 + 1)
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ix := s.Freeze()
				window := []arm.Instr{arm.MustParse(fmt.Sprintf("mov r4, #%d", i%patterns))}
				ix.NewBlockScanner(window).LongestMatch(0)
				s.Lookup(window)
				_ = s.Quarantined()
				_ = s.IsQuarantined(i % patterns)
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Count(); got != patterns-quarantines {
		t.Fatalf("count %d after %d quarantines, want %d", got, quarantines, patterns-quarantines)
	}
	if got := len(s.Quarantined()); got != quarantines {
		t.Fatalf("%d rules quarantined, want %d", got, quarantines)
	}
	ix := s.Freeze()
	for i := 0; i < quarantines; i++ {
		n := i * 3 // immRule(id, n) has id = n+1
		if _, _, ok := ixLookup(ix, []arm.Instr{arm.MustParse(fmt.Sprintf("mov r6, #%d", n))}); ok {
			t.Fatalf("quarantined pattern %d survives in the final snapshot", n)
		}
	}
}

// TestAllCanonicalOrder: rules from different learners share IDs, so All()
// must impose a total order that ignores insertion order — the property
// `rulelearn -jobs N` relies on for byte-identical output.
func TestAllCanonicalOrder(t *testing.T) {
	mk := func(n int, src string) *Rule {
		r := immRule(1, n) // every rule claims ID 1
		r.Source = src
		return r
	}
	rulesIn := []*Rule{mk(1, "bbb:1"), mk(2, "aaa:1"), mk(3, "ccc:1"), mk(4, "aaa:2")}
	fwd, rev := NewStore(), NewStore()
	for i := range rulesIn {
		fwd.Add(rulesIn[i])
		rev.Add(rulesIn[len(rulesIn)-1-i])
	}
	a, b := fwd.All(), rev.All()
	if len(a) != len(rulesIn) || len(b) != len(rulesIn) {
		t.Fatalf("All() lengths %d/%d, want %d", len(a), len(b), len(rulesIn))
	}
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("order depends on insertion: pos %d is %q vs %q", i, a[i].Source, b[i].Source)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Source > a[i].Source {
			t.Fatalf("tie-break not canonical: %q before %q", a[i-1].Source, a[i].Source)
		}
	}
}
