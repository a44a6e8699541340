package dbt

import (
	"dbtrules/arm"
	"dbtrules/internal/faultinject"
	"dbtrules/rules"
	"dbtrules/x86"
)

// flagsLiveAfter computes, for each guest flag (N,Z,C,V), whether it may be
// consumed after block position from. Conservative: live at block end.
func flagsLiveAfter(block []arm.Instr, from int) [4]bool {
	live := [4]bool{}
	resolved := [4]bool{}
	markAll := func(v [4]bool) {
		for i := range v {
			if v[i] && !resolved[i] {
				live[i] = true
				resolved[i] = true
			}
		}
	}
	for k := from; k < len(block); k++ {
		in := block[k]
		if in.Cond != arm.AL {
			markAll(condFlagsUsed[in.Cond])
		}
		if in.Op == arm.ADC || in.Op == arm.SBC || in.Op == arm.RSC {
			if !resolved[2] {
				live[2] = true
				resolved[2] = true
			}
		}
		// Definitions kill.
		if in.WritesFlags() && !in.Predicated() {
			switch in.Op {
			case arm.ADD, arm.ADC, arm.SUB, arm.SBC, arm.RSB, arm.RSC, arm.CMP, arm.CMN:
				for i := range resolved {
					resolved[i] = true // defined before any further use
				}
			default: // logical group defines N,Z only (C only with a shifter)
				resolved[0] = true
				resolved[1] = true
			}
		}
		done := true
		for _, r := range resolved {
			if !r {
				done = false
				break
			}
		}
		if done {
			return live
		}
	}
	for i := range resolved {
		if !resolved[i] {
			live[i] = true // conservative: live out of the block
		}
	}
	return live
}

// rulesFlagPlan decides the §5 condition-code postlude for an applied rule.
type rulesFlagPlan int

const (
	flagPlanNone    rulesFlagPlan = iota // rule writes no flags, or all dead
	flagPlanSubLike                      // pushf save, format 1
	flagPlanAddLike                      // pushf save, format 2
	flagPlanReject                       // cannot apply this rule here
)

func planRuleFlags(r *rules.Rule, live [4]bool, disableSave bool) rulesFlagPlan {
	writes := r.WritesFlags()
	if !writes {
		return flagPlanNone
	}
	anyLive := false
	for i := 0; i < 4; i++ {
		if r.Flags[i] == rules.FlagUnemulated && live[i] {
			return flagPlanReject
		}
		if r.Flags[i] != rules.FlagUnset && live[i] {
			anyLive = true
		}
		// A flag the guest leaves untouched but that is live must survive;
		// the pushf save would clobber its slot view, so only fully
		// defining rules may save.
		if r.Flags[i] == rules.FlagUnset && live[i] {
			return flagPlanReject
		}
	}
	if !anyLive {
		return flagPlanNone
	}
	if disableSave {
		return flagPlanReject
	}
	f := r.Flags
	if f[rules.FlagN] == rules.FlagEqual && f[rules.FlagZ] == rules.FlagEqual &&
		f[rules.FlagV] == rules.FlagEqual {
		switch f[rules.FlagC] {
		case rules.FlagInverted:
			return flagPlanSubLike
		case rules.FlagEqual:
			return flagPlanAddLike
		case rules.FlagUnemulated: // dead (checked above): saving N,Z,V is
			// still wrong for a live C, but C is dead, so the sub-style
			// save is safe for the three live ones.
			return flagPlanSubLike
		}
	}
	return flagPlanReject
}

// tryRules attempts to translate a rule-covered window starting at block
// position i of the block sc was pointed at. It returns the number of
// guest instructions consumed (0 when no rule applies). Windows are probed
// longest first (§4), or shortest first under the ShortestMatch ablation;
// each probe uses an O(1) prefix-sum window key and skips lengths the
// first-opcode mask rules out.
func (e *Engine) tryRules(t *translator, tb *TB, sc *rules.BlockScanner, block []arm.Instr, i, gpc int) int {
	maxLen := sc.MaxLen(i)
	l, step := maxLen, -1
	if e.ShortestMatch {
		l, step = 1, 1
	}
	for ; l >= 1 && l <= maxLen; l += step {
		r, b, ok := sc.Match(i, l)
		if !ok {
			continue
		}
		if r.NumRegParams > len(cacheRegs) {
			e.Stats.RuleApplyFails++
			continue
		}
		plan := planRuleFlags(r, flagsLiveAfter(block, i+l), e.DisableRuleFlagSave)
		if plan == flagPlanReject {
			e.Stats.RuleApplyFails++
			continue
		}
		// Attribute any panic inside rule application to this rule: the
		// containment path in translateGuarded reads curRule to decide what
		// to quarantine. Cleared on every non-panicking exit; a panic skips
		// the clear deliberately (translateGuarded clears it after
		// attribution).
		e.curRule = r
		if e.applyRule(t, r, b, block, i, l, gpc, plan) {
			e.curRule = nil
			for k := i; k < i+l; k++ {
				tb.Covered[k] = true
			}
			tb.ruleIDs = append(tb.ruleIDs, r.ID)
			e.Stats.RuleHitsByLen[l]++
			return l
		}
		e.curRule = nil
		e.Stats.RuleApplyFails++
	}
	return 0
}

// applyRule emits the host code of a matched rule window. Returns false if
// instantiation fails under host-ISA constraints.
func (e *Engine) applyRule(t *translator, r *rules.Rule, b *rules.Binding,
	block []arm.Instr, i, l, gpc int, plan rulesFlagPlan) bool {
	// Allocate host registers for bound guest registers, reusing TCG's
	// register cache (§5). Registers the window only defines (including
	// ConstDef temporaries) skip the initial load.
	inputs := map[arm.Reg]bool{}
	for k := i; k < i+l; k++ {
		for _, g := range block[k].Uses() {
			inputs[g] = true
		}
	}
	pinned := map[x86.Reg]bool{}
	hostOf := make([]x86.Reg, len(b.Regs))
	for p, g := range b.Regs {
		var h x86.Reg
		if inputs[g] {
			h = t.cache.ensure(g, pinned)
		} else {
			h = t.cache.alloc(g, pinned)
		}
		pinned[h] = true
		hostOf[p] = h
	}
	host, err := r.Instantiate(b, func(p int) (x86.Reg, error) {
		return hostOf[p], nil
	})
	if err != nil {
		return false
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.RuleBindingCorrupt) {
		// Stand-in for a corrupted binding or a bad learned rule blowing up
		// during instantiation/emission — after the match, so the fault is
		// attributable to this rule.
		panic(injectedPanic{point: faultinject.RuleBindingCorrupt})
	}
	// Emit the body (minus a trailing conditional jump, re-targeted below).
	body := host
	var trailing *x86.Instr
	if r.EndsInBranch && len(host) > 0 && host[len(host)-1].Op == x86.JCC {
		trailing = &host[len(host)-1]
		body = host[:len(host)-1]
	}
	for _, in := range body {
		t.a.emit(in)
	}
	// Mark defined guest registers dirty.
	for k := i; k < i+l; k++ {
		for _, g := range block[k].Defs() {
			t.cache.markDirty(g)
		}
	}
	// §5 condition-code postlude: save host flags in 3+1 instructions and
	// tag the format so successor blocks pick the right consumer version.
	switch plan {
	case flagPlanSubLike, flagPlanAddLike:
		fmtVal := uint32(ccFmtSubLike)
		t.liveHostFlags = ccFmtSubLike
		if plan == flagPlanAddLike {
			fmtVal = ccFmtAddLike
			t.liveHostFlags = ccFmtAddLike
		}
		t.a.emit(x86.Instr{Op: x86.PUSHF})
		t.a.emit(x86.Instr{Op: x86.POP, Dst: x86.RegOp(scratchA)})
		t.a.storeEnv(scratchA, EnvHFlags)
		t.a.storeEnvImm(fmtVal, EnvCCFmt)
	default:
		// Either the rule body clobbered host flags, or every flag it
		// writes is dead: host flags are meaningless from here.
		t.liveHostFlags = 0
	}
	if trailing != nil {
		// The instantiated jump carries the guest target; route both edges
		// through exit stubs. Flag saves and writebacks above use only
		// flag-preserving instructions, so the condition is still intact.
		t.cache.writebackAll()
		taken := t.a.jccPatch(trailing.CC)
		t.a.storeEnvImm(uint32(gpc+i+l), EnvPC)
		t.a.jmpEnd()
		t.a.patchHere(taken)
		t.a.storeEnvImm(uint32(trailing.Target), EnvPC)
		t.a.jmpEnd()
	}
	return true
}
