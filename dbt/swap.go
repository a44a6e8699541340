package dbt

import (
	"dbtrules/rules"
)

// offeredRules is a pending rule-set swap: the store plus the index
// frozen from it on the offering goroutine. Freezing at offer time keeps
// the dispatch loop's adoption cost at one pointer load — it never takes
// a store lock or pays a Freeze on the hot path.
type offeredRules struct {
	store *rules.Store
	idx   *rules.Index
}

// OfferRules hands the engine a replacement rule store to adopt at the
// next safe point (between translated blocks, or at the next Run entry).
// It is the subscription half of the rule-distribution path: a
// dist.Subscribe deliver callback offers each incoming snapshot, and an
// engine started with no rules at all keeps executing through the TCG
// fallback until the first offer lands. OfferRules is safe to call from
// any goroutine while the engine is running; a newer offer simply
// replaces an unadopted older one. Offering nil swaps the engine to pure
// TCG translation.
//
// Adoption flushes the code cache: blocks translated under the old rule
// set may embed rules the new set has dropped or quarantined, and a flush
// is the only way to guarantee no stale rule keeps executing. The engine
// stays correct throughout — it just retranslates on demand, exactly as
// after Invalidate.
func (e *Engine) OfferRules(store *rules.Store) {
	o := &offeredRules{store: store}
	if store != nil {
		o.idx = store.Freeze()
	}
	e.offerMu.Lock()
	e.offer = o
	e.offerFlag.Store(1)
	e.offerMu.Unlock()
}

// offerPending reports whether an offer waits to be adopted.
func (e *Engine) offerPending() bool { return e.offerFlag.Load() != 0 }

// adoptOffered installs a pending offer, if any. Called only at safe
// points: no TB is executing, so flushing the cache cannot pull code out
// from under a running block. The dispatch loop calls it between every
// two blocks, so the no-offer path is one atomic load of offerFlag; the
// lock is taken only once an offer is seen, and the flag is cleared
// under it together with taking the newest offer, so an offer landing at
// any moment either is the one taken here or leaves the flag set.
func (e *Engine) adoptOffered() {
	if !e.offerPending() {
		return
	}
	e.offerMu.Lock()
	o := e.offer
	e.offer = nil
	e.offerFlag.Store(0)
	e.offerMu.Unlock()
	e.Rules = o.store
	e.idx = o.idx
	e.scan = nil
	for _, tb := range e.tbs {
		// The flush demotes every promoted block: thunks compiled under
		// the old rule set die with their TBs, and retranslated blocks
		// start cold on the interpreter tier.
		if tb != nil {
			e.drop(tb)
		}
	}
	if e.jit != nil {
		// Every block is gone, so no live code remains in the executable
		// buffer: bump its generation and reclaim the space. The
		// generation check at dispatch is the backstop for any TB pointer
		// that somehow outlives the flush.
		e.resetJIT()
	}
	if t := e.tel; t.armed() {
		t.ruleSwaps.Inc()
		t.telRefreeze()
		if e.jit != nil {
			t.codeBytes.Set(uint64(e.jit.Bytes()))
		}
	}
}
