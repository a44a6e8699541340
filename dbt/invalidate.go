package dbt

// tbPageShift sizes the invalidation pages: 1<<tbPageShift guest
// instructions per page. Guest "self-modification" granularity is an
// instruction index here (the guest ISA model is word-addressed code), so
// 64-instruction pages keep the generation array small while still
// localizing invalidations.
const tbPageShift = 6

// Invalidate discards every translated block overlapping the guest code
// range [gpc, gpc+n): the blocks are cleared from the code cache eagerly,
// their pages' generation counters are bumped (a second line of defence —
// a stale TB that somehow survives the sweep is caught at dispatch), and
// every surviving block's chain list is unlinked from the removed entries
// so a patched exit jump cannot land in freed code — for native blocks,
// whose patched jumps are link records, drop empties every record. It
// returns the number of blocks invalidated.
//
// This is the self-modifying-code hook: a guest store into its own code
// region must be followed by Invalidate over the written range before the
// next dispatch.
func (e *Engine) Invalidate(gpc, n int) int {
	lo, hi := gpc, gpc+n
	if lo < 0 {
		lo = 0
	}
	if hi > len(e.Guest.Code) {
		hi = len(e.Guest.Code)
	}
	if lo >= hi {
		return 0
	}
	for p := lo >> tbPageShift; p <= (hi-1)>>tbPageShift; p++ {
		e.pageGen[p]++
	}
	removed := map[int]bool{}
	for entry, tb := range e.tbs {
		if tb == nil {
			continue
		}
		if entry < hi && entry+tb.GuestLen > lo {
			e.drop(tb)
			e.Stats.InvalidatedTBs++
			removed[entry] = true
		}
	}
	if len(removed) == 0 {
		return 0
	}
	for _, tb := range e.tbs {
		if tb == nil || len(tb.succ) == 0 {
			continue
		}
		keep := tb.succ[:0]
		for _, s := range tb.succ {
			if !removed[int(s)] {
				keep = append(keep, s)
			}
		}
		tb.succ = keep
	}
	e.tel.telInvalidate(lo, len(removed))
	return len(removed)
}
