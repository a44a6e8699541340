package dbt

import (
	"dbtrules/internal/faultinject"
	"dbtrules/x86/native"
)

// Native-to-native links. A native block's exit over a chained edge to
// another native block is followed by the trampoline's link stub (see
// x86/native.Link) instead of by the dispatch loop: the stub reads the
// guest pc, finds it in the block's link record and enters the
// successor, charging the dispatch exactly as exec's chained path does.
// exec writes a record's slots when it sees such an edge go through the
// loop; every record is emptied when any native block leaves the code
// cache (drop, demoteNative) and the table itself goes with the code
// buffer (resetJIT), so no link can reach a dropped block.

// linkSlice bounds the guest instructions one Enter may run over links
// before the stub hands control back to Go, so an engine that never
// leaves a hot loop still reaches Go often enough for the breakers it
// checks there. At a few hundred million guest instructions a second
// this is well under a millisecond.
const linkSlice = 1 << 16

// linkable reports whether a native block entered now may go on over
// its links. Links skip exactly the per-dispatch work that observers
// see, so every observer turns them off: DisableChaining (no chained
// edges at all), EnableRuleHits, armed telemetry and fault injection.
// A pending rule offer is the stub's own breaker (Ctx.Stop), and e.env
// is unset outside Run.
func (e *Engine) linkable() bool {
	return !e.DisableChaining && e.ruleHits == nil && !e.tel.armed() &&
		!faultinject.Enabled() && e.env != nil
}

// linkAllowance is the stub's countdown for a chain starting at tb: the
// guest instructions that may still run after tb before the dispatch
// loop's budget check would fail, capped at linkSlice, and negative when
// that check fails right after tb. The stub links while it is not
// negative, deducting each successor's GuestLen — the same test the loop
// applies after every block.
func (e *Engine) linkAllowance(tb *TB) int64 {
	done := e.Stats.GuestInstrs + uint64(tb.GuestLen)
	if done > e.maxGuest {
		return -1
	}
	return int64(min(e.maxGuest-done, linkSlice))
}

// newLink gives a freshly placed native block its link record and its
// row in the link table.
func (e *Engine) newLink(tb *TB) {
	tb.link = &native.Link{
		HostLen:  int64(len(tb.Host)),
		GuestLen: int64(tb.GuestLen),
		Covered:  int64(tb.CoveredCnt),
		Exec:     &tb.ExecCount,
		ID:       int64(len(e.linkTBs)),
	}
	tb.link.Unlink()
	e.linkTBs = append(e.linkTBs, tb)
}

// unlink takes tb's record out of the link table and empties every
// record, so no link leads to tb's code any more.
func (e *Engine) unlink(tb *TB) {
	if tb.link == nil {
		return
	}
	e.linkTBs[tb.link.ID] = nil
	tb.link = nil
	if !e.linked {
		return
	}
	for _, o := range e.linkTBs {
		if o != nil {
			o.link.Unlink()
		}
	}
	e.linked = false
}

// resetJIT reclaims the code buffer and empties the link table with it.
// Only the full cache flush calls it, after every block is dropped.
func (e *Engine) resetJIT() {
	e.jit.Reset()
	clear(e.linkTBs)
	e.linkTBs = e.linkTBs[:0]
	e.linked = false
}
