package dbt

import (
	"fmt"

	"dbtrules/internal/faultinject"
)

// maxFaultRetries caps contained faults per guest entry PC per Run. A
// genuine, persistent fault (one that survives rule quarantine and a
// pure-TCG retranslation) keeps firing at the same entry; after this many
// containment rounds the engine stops eating it and surfaces the
// FaultError to the caller.
const maxFaultRetries = 8

// FaultError is a contained execution or translation fault: a panic (or
// injected failure) caught at the Engine.translate / Engine.exec boundary
// and converted into a typed error carrying enough context to quarantine
// the offending rule and retranslate the block.
type FaultError struct {
	// Point is the fault-injection point name when the fault was
	// injected, or "panic" for a genuine runtime panic.
	Point string
	// GuestPC is the guest entry PC of the block being translated or
	// executed when the fault hit.
	GuestPC int
	// TBEntry is the entry PC of the translated block that faulted, or
	// -1 when translation never produced one.
	TBEntry int
	// RuleID identifies the learned rule implicated in the fault, or -1
	// when no rule is (pure-TCG translation, or execution of a block
	// whose rules cannot be singled out).
	RuleID int
	// Panic holds the recovered panic value, nil for non-panic faults.
	Panic any
}

func (f *FaultError) Error() string {
	s := fmt.Sprintf("dbt: contained fault %q at guest pc %d", f.Point, f.GuestPC)
	if f.RuleID >= 0 {
		s += fmt.Sprintf(" (rule %d)", f.RuleID)
	}
	if f.Panic != nil {
		s += fmt.Sprintf(": %v", f.Panic)
	}
	return s
}

// injectedPanic is the panic value thrown by armed injection points, so
// the recovery path can report the point name instead of a generic
// "panic".
type injectedPanic struct{ point string }

func pointOfPanic(p any) string {
	if ip, ok := p.(injectedPanic); ok {
		return ip.point
	}
	return "panic"
}

// translateGuarded wraps Engine.translate in panic containment: any panic
// in block discovery, rule matching, instantiation, or host-code emission
// becomes a *FaultError attributed to the rule being applied at the time
// (e.curRule), instead of unwinding through Run.
func (e *Engine) translateGuarded(gpc int) (tb *TB, err error) {
	defer func() {
		if p := recover(); p != nil {
			ruleID := -1
			if e.curRule != nil {
				ruleID = e.curRule.ID
			}
			tb, err = nil, &FaultError{
				Point:   pointOfPanic(p),
				GuestPC: gpc,
				TBEntry: -1,
				RuleID:  ruleID,
				Panic:   p,
			}
		}
		e.curRule = nil
	}()
	if faultinject.Enabled() && faultinject.Fire(faultinject.TranslateFail) {
		return nil, &FaultError{
			Point: faultinject.TranslateFail, GuestPC: gpc, TBEntry: -1, RuleID: -1,
		}
	}
	return e.translate(gpc)
}

// retry counts one more contained fault at gpc in this Run and returns
// the count. The map is allocated on the first fault, so a fault-free
// Run allocates nothing for it.
func (e *Engine) retry(gpc int) int {
	if e.faultRetries == nil {
		e.faultRetries = map[int]int{}
	}
	e.faultRetries[gpc]++
	return e.faultRetries[gpc]
}

// contain handles a fault raised while translating the block at gpc.
// When a rule is implicated it is quarantined (pulled from the store, so
// the retranslation — and every other engine sharing the store — stops
// using it); otherwise the entry is pinned to pure-TCG translation. The
// caller re-dispatches the same guest PC, which retranslates cleanly.
// Returns false when the retry budget for this entry is exhausted.
func (e *Engine) contain(fe *FaultError, gpc int) bool {
	e.Stats.Faults++
	if e.retry(gpc) > maxFaultRetries {
		e.tel.telFault(fe, false, e.faultRetries[gpc])
		return false
	}
	if !e.quarantine(fe.RuleID) {
		if e.forceTCG == nil {
			e.forceTCG = map[int]bool{}
		}
		e.forceTCG[gpc] = true
	}
	e.Stats.Recoveries++
	e.tel.telFault(fe, true, e.faultRetries[gpc])
	return true
}

// containExec handles a fault raised while executing tb. The block is
// invalidated so the next dispatch retranslates it; if it was
// rule-generated, every rule that contributed host code is quarantined
// (execution faults cannot be pinned on a single window), otherwise the
// entry is pinned to pure-TCG. Injected execution faults fire before any
// guest-visible state or stats mutate, so re-dispatch is exact; genuine
// mid-block panics get a best-effort re-execution from the block entry
// (the guest PC slot is only written at block exits).
func (e *Engine) containExec(fe *FaultError, tb *TB) bool {
	e.Stats.Faults++
	gpc := tb.EntryGPC
	if e.retry(gpc) > maxFaultRetries {
		e.tel.telFault(fe, false, e.faultRetries[gpc])
		return false
	}
	if e.tbs[gpc] == tb {
		e.drop(tb)
		e.Stats.InvalidatedTBs++
		e.tel.telInvalidate(gpc, 1)
	}
	quarantined := false
	for _, id := range tb.ruleIDs {
		if e.quarantine(id) {
			quarantined = true
		}
	}
	if !quarantined {
		if e.forceTCG == nil {
			e.forceTCG = map[int]bool{}
		}
		e.forceTCG[gpc] = true
	}
	e.Stats.Recoveries++
	e.tel.telFault(fe, true, e.faultRetries[gpc])
	return true
}

// quarantine pulls the rule with the given ID out of the store. The
// version bump makes the next translation refreeze (see scanner), so the
// retry never matches it again. Returns whether anything was quarantined.
func (e *Engine) quarantine(id int) bool {
	if e.Rules == nil || id < 0 {
		return false
	}
	n := e.Rules.Quarantine(id)
	if n == 0 {
		return false
	}
	e.Stats.QuarantinedRules += uint64(n)
	e.tel.telQuarantine(id, n)
	return true
}
