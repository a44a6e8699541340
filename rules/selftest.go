package rules

import (
	"fmt"
	"math/rand"

	"dbtrules/arm"
	"dbtrules/x86"
)

// CheckInvariants verifies the store's internal indexes agree with each
// other: every rule lives in its mean key's shard, each shard's byKey
// buckets hold exactly the rules its byPattern holds, per-shard and
// store-wide count/maxLen match reality, and no bucket removal ever failed
// to find its rule (the Add replace path records such failures instead of
// silently drifting). It is the store-level companion of Rule.SelfTest:
// cheap enough to run in tests after any mutation pattern that exercises
// replacement.
func (s *Store) CheckInvariants() error {
	totalCount, totalMaxLen := 0, 0
	for si := range s.shards {
		sh := &s.shards[si]
		if err := s.checkShard(si, sh); err != nil {
			return err
		}
		sh.mu.RLock()
		totalCount += sh.count
		if sh.maxLen > totalMaxLen {
			totalMaxLen = sh.maxLen
		}
		sh.mu.RUnlock()
	}
	if got := int(s.count.Load()); got != totalCount {
		return fmt.Errorf("rules: store count %d but shards hold %d", got, totalCount)
	}
	// The hint is a monotonic upper bound (never lowered on quarantine);
	// it must never under-report, or the match scans would skip lengths
	// that hold rules.
	if hint := int(s.maxLenHint.Load()); hint < totalMaxLen {
		return fmt.Errorf("rules: maxLen hint %d below longest installed pattern %d", hint, totalMaxLen)
	}
	return nil
}

// checkShard validates one shard's internal consistency under its read
// lock, including membership: every rule's mean key must map to this
// shard, or cross-shard lookups would miss it.
func (s *Store) checkShard(si int, sh *shard) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.inconsistent > 0 {
		return fmt.Errorf("rules: shard %d: %d bucket removals missed their rule", si, sh.inconsistent)
	}
	if got := len(sh.byPattern); got != sh.count {
		return fmt.Errorf("rules: shard %d: count %d but %d patterns", si, sh.count, got)
	}
	coarse, maxLen := 0, 0
	for key, bucket := range sh.byKey {
		if s.shardFor(key) != sh {
			return fmt.Errorf("rules: shard %d holds coarse bucket %d owned by shard %d",
				si, key, key%len(s.shards))
		}
		for _, r := range bucket {
			coarse++
			if HashKey(r.Guest) != key {
				return fmt.Errorf("rules: rule %d in coarse bucket %d, key %d",
					r.ID, key, HashKey(r.Guest))
			}
			if sh.byPattern[patternKey(r.Guest)] != r {
				return fmt.Errorf("rules: coarse bucket %d holds rule %d not in byPattern", key, r.ID)
			}
			if len(r.Guest) > maxLen {
				maxLen = len(r.Guest)
			}
		}
	}
	if coarse != sh.count {
		return fmt.Errorf("rules: shard %d: count %d but %d bucket entries", si, sh.count, coarse)
	}
	if sh.count > 0 && maxLen != sh.maxLen {
		return fmt.Errorf("rules: shard %d: maxLen %d but longest installed pattern is %d",
			si, sh.maxLen, maxLen)
	}
	for _, r := range sh.quarantined {
		pk := patternKey(r.Guest)
		if !sh.quarantinedPat[pk] {
			return fmt.Errorf("rules: quarantined rule %d lost its pattern bar", r.ID)
		}
		if sh.byPattern[pk] != nil {
			return fmt.Errorf("rules: quarantined rule %d still installed", r.ID)
		}
	}
	return nil
}

// SelfTest executes the rule's guest pattern and its instantiated host
// code from randomized equivalent machine states and verifies they agree
// on every parameter register, on memory, and on a trailing branch
// decision. It is a runtime defence for rules loaded from files (which,
// unlike freshly learned rules, have not just been through symbolic
// verification): a corrupted or hand-edited rule fails here.
func (r *Rule) SelfTest(trials int, seed int64) error {
	if r.NumRegParams > arm.NumRegs || r.NumRegParams > x86.NumRegs {
		return fmt.Errorf("rule %d: %d register parameters", r.ID, r.NumRegParams)
	}
	rng := rand.New(rand.NewSource(seed))
	window := make([]arm.Instr, len(r.Guest))
	imms := make([]uint32, r.NumImmParams)
	const branchSentinel = 1 << 20

	for trial := 0; trial < trials; trial++ {
		for i := range imms {
			imms[i] = uint32(rng.Int31n(1 << 12))
			if rng.Intn(2) == 0 {
				imms[i] = -imms[i] & 0xfff
			}
		}
		for i := range window {
			window[i] = r.Guest[i]
			for _, s := range r.GuestImms {
				if s.Instr != i {
					continue
				}
				if s.Field == GuestOp2Imm {
					window[i].Op2.Imm = imms[s.Param]
				} else {
					window[i].Mem.Imm = int32(imms[s.Param])
				}
			}
			if window[i].Op == arm.B {
				window[i].Target = branchSentinel
			}
		}
		b, ok := r.Match(window)
		if !ok {
			return fmt.Errorf("rule %d: does not match its own pattern %q", r.ID, arm.Seq(window))
		}
		host, err := r.Instantiate(b, func(p int) (x86.Reg, error) {
			return x86.Reg(p), nil
		})
		if err != nil {
			// Byte-addressability limits are a property of the identity
			// register assignment, not of the rule.
			return nil
		}
		// Step no longer validates operand shapes on the hot path, so a
		// corrupted rule whose host code is structurally invalid (not just
		// semantically wrong) must be rejected here before execution.
		if cerr := x86.CheckCode(host); cerr != nil {
			return fmt.Errorf("rule %d: invalid host code: %v", r.ID, cerr)
		}

		gst := arm.NewState()
		hst := x86.NewState()
		for p := 0; p < r.NumRegParams; p++ {
			v := uint32(rng.Uint64())
			if rng.Intn(2) == 0 {
				v = 0x4000 + uint32(rng.Intn(1<<16))&^3
			}
			gst.R[arm.Reg(p)] = v
			hst.R[x86.Reg(p)] = v
		}
		for i := 0; i < 32; i++ {
			gst.Mem.Write32(uint32(rng.Uint64()), uint32(rng.Uint64()))
		}
		hst.Mem = gst.Mem.Clone()

		gpc := 0
		for gpc >= 0 && gpc < len(window) {
			gpc = gst.Step(window[gpc], gpc)
		}
		hpc := 0
		for hpc >= 0 && hpc < len(host) {
			hpc = hst.Step(host[hpc], hpc)
		}
		if r.EndsInBranch {
			if (gpc == branchSentinel) != (hpc == branchSentinel) {
				return fmt.Errorf("rule %d: branch divergence on %q", r.ID, arm.Seq(window))
			}
		}
		for p := 0; p < r.NumRegParams; p++ {
			if gst.R[arm.Reg(p)] != hst.R[x86.Reg(p)] {
				return fmt.Errorf("rule %d: param %d diverges (%#x vs %#x) on %q",
					r.ID, p, gst.R[arm.Reg(p)], hst.R[x86.Reg(p)], arm.Seq(window))
			}
		}
		if !gst.Mem.Equal(hst.Mem) {
			return fmt.Errorf("rule %d: memory diverges on %q", r.ID, arm.Seq(window))
		}
	}
	return nil
}
