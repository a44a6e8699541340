package dbt

import (
	"time"

	"dbtrules/internal/telemetry"
)

// dispatchSampleShift controls trace-event sampling on the dispatch hot
// path: one EvDispatch event is recorded per 1<<dispatchSampleShift
// dispatches (counters still count every dispatch). Translation, fault,
// quarantine, and invalidation events are rare and recorded unsampled.
const dispatchSampleShift = 6

// engineTel holds an engine's pre-resolved metric handles, so the hot
// paths touch atomic counters directly instead of name-keyed maps. It is
// nil on an un-instrumented engine; every hook site guards on that nil
// plus the registry's armed bit, which keeps the golden-stats and
// differential tests bit-identical to the seed engine.
type engineTel struct {
	reg *telemetry.Registry

	dispatches  *telemetry.Counter
	chainHits   *telemetry.Counter
	guestInstrs *telemetry.Counter
	translates  *telemetry.Counter
	faults      *telemetry.Counter
	recoveries  *telemetry.Counter
	quarantines *telemetry.Counter
	refreezes   *telemetry.Counter
	invalidated *telemetry.Counter
	ruleSwaps   *telemetry.Counter
	promotions  *telemetry.Counter

	// Per-target promotion split, exported as the labeled series
	// dbt_tier_promote_total{to="threaded"|"native"} alongside the
	// unlabeled total above.
	promoteThreaded *telemetry.Counter
	promoteNative   *telemetry.Counter

	// Per-tier dispatch split, exported as the labeled series
	// dbt_tier_dispatch_total{tier="interp"|"threaded"|"native"}.
	interpDisp   *telemetry.Counter
	threadedDisp *telemetry.Counter
	nativeDisp   *telemetry.Counter

	// nativeBails counts native-tier mid-block handoffs to the
	// interpreter; bufferFails counts native placements refused by the
	// code buffer (JITLimit or mmap failure) that demoted the block to
	// threaded; codeBytes gauges the executable buffer's mapped size.
	nativeBails *telemetry.Counter
	bufferFails *telemetry.Counter
	codeBytes   *telemetry.Gauge

	// bailShapes lazily resolves the per-shape bailout split,
	// dbt_native_bailouts_total{shape=...}. Lazy because the shape space
	// is data-dependent (see bailShape); the engine is single-goroutine,
	// so a plain map suffices.
	bailShapes map[string]*telemetry.Counter

	translateNS *telemetry.Histogram
	runNS       *telemetry.Histogram

	dispatchSeq uint64 // sampling counter for EvDispatch trace events
}

// SetTelemetry attaches a metrics registry to the engine. Pass nil to
// detach. Attaching resolves every dbt_* metric once; recording then
// happens only while the registry is armed. The engine's Stats counters
// are unaffected either way — telemetry observes, it never alters the
// deterministic cycle model.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		e.tel = nil
		return
	}
	e.tel = &engineTel{
		reg:         reg,
		dispatches:  reg.Counter("dbt_dispatch_total"),
		chainHits:   reg.Counter("dbt_chain_hits_total"),
		guestInstrs: reg.Counter("dbt_guest_instrs_total"),
		translates:  reg.Counter("dbt_translate_total"),
		faults:      reg.Counter("dbt_faults_total"),
		recoveries:  reg.Counter("dbt_recoveries_total"),
		quarantines: reg.Counter("dbt_quarantined_rules_total"),
		refreezes:   reg.Counter("dbt_refreeze_total"),
		invalidated: reg.Counter("dbt_invalidated_tbs_total"),
		ruleSwaps:   reg.Counter("dbt_rule_swap_total"),
		promotions:  reg.Counter("dbt_tier_promote_total"),
		promoteThreaded: reg.Counter(
			telemetry.Label("dbt_tier_promote_total", "to", "threaded")),
		promoteNative: reg.Counter(
			telemetry.Label("dbt_tier_promote_total", "to", "native")),
		interpDisp: reg.Counter(
			telemetry.Label("dbt_tier_dispatch_total", "tier", "interp")),
		threadedDisp: reg.Counter(
			telemetry.Label("dbt_tier_dispatch_total", "tier", "threaded")),
		nativeDisp: reg.Counter(
			telemetry.Label("dbt_tier_dispatch_total", "tier", "native")),
		nativeBails: reg.Counter("dbt_native_bailouts_total"),
		bufferFails: reg.Counter("dbt_native_buffer_fail_total"),
		codeBytes:   reg.Gauge("dbt_native_code_bytes"),
		translateNS: reg.Histogram("dbt_translate_ns"),
		runNS:       reg.Histogram("dbt_run_ns"),
	}
}

// armed reports whether recording should happen right now. The disarmed
// cost when a registry is attached is one atomic load (plus the nil
// check every un-instrumented engine pays).
func (t *engineTel) armed() bool { return t != nil && t.reg.Armed() }

// telDispatch records one block dispatch (called from the exec hot path
// only when armed). tier is the tier that actually executed the block.
func (t *engineTel) telDispatch(tb *TB, chained bool, tier Tier) {
	t.dispatches.Inc()
	t.guestInstrs.Add(uint64(tb.GuestLen))
	if chained {
		t.chainHits.Inc()
	}
	switch tier {
	case TierNative:
		t.nativeDisp.Inc()
	case TierThreaded:
		t.threadedDisp.Inc()
	default:
		t.interpDisp.Inc()
	}
	t.dispatchSeq++
	if t.dispatchSeq&(1<<dispatchSampleShift-1) == 0 {
		t.reg.Trace(telemetry.EvDispatch, tb.EntryGPC, -1, tb.ExecCount)
	}
}

// telTranslate records one block translation with its latency.
func (t *engineTel) telTranslate(gpc int, tb *TB, t0 time.Time) {
	t.translates.Inc()
	t.translateNS.ObserveSince(t0)
	t.reg.Trace(telemetry.EvTranslate, gpc, -1, uint64(tb.CoveredCnt))
}

// telFault records a contained fault and, when the containment budget
// allowed a retry, the recovery.
func (t *engineTel) telFault(fe *FaultError, recovered bool, retries int) {
	if !t.armed() {
		return
	}
	t.faults.Inc()
	t.reg.Trace(telemetry.EvFault, fe.GuestPC, fe.RuleID, uint64(retries))
	if recovered {
		t.recoveries.Inc()
		t.reg.Trace(telemetry.EvRecovery, fe.GuestPC, fe.RuleID, 0)
	}
}

// telQuarantine records a rule quarantine (n rules removed).
func (t *engineTel) telQuarantine(ruleID, n int) {
	if !t.armed() {
		return
	}
	t.quarantines.Add(uint64(n))
	t.reg.Trace(telemetry.EvQuarantine, -1, ruleID, uint64(n))
}

// telPromote records a block's promotion to the given target tier
// (called from promote/promoteNative only when armed; Arg carries the
// ExecCount that crossed the threshold).
func (t *engineTel) telPromote(tb *TB, target Tier) {
	t.promotions.Inc()
	if target == TierNative {
		t.promoteNative.Inc()
	} else {
		t.promoteThreaded.Inc()
	}
	t.reg.Trace(telemetry.EvPromote, tb.EntryGPC, -1, tb.ExecCount)
}

// telNativeBails records n native-tier bailouts from one dispatch.
func (t *engineTel) telNativeBails(n uint64) {
	if n != 0 {
		t.nativeBails.Add(n)
	}
}

// telNativeBailShape records one bailout under its instruction-shape
// label (callers pass bailShape(in); only called when armed).
func (t *engineTel) telNativeBailShape(shape string) {
	c := t.bailShapes[shape]
	if c == nil {
		if t.bailShapes == nil {
			t.bailShapes = map[string]*telemetry.Counter{}
		}
		c = t.reg.Counter(telemetry.Label("dbt_native_bailouts_total", "shape", shape))
		t.bailShapes[shape] = c
	}
	c.Inc()
}

// telRefreeze records the engine moving to a newer rule-index snapshot.
func (t *engineTel) telRefreeze() {
	if !t.armed() {
		return
	}
	t.refreezes.Inc()
	t.reg.Trace(telemetry.EvRefreeze, -1, -1, 0)
}

// telInvalidate records n blocks discarded from the code cache starting
// at guest pc gpc.
func (t *engineTel) telInvalidate(gpc, n int) {
	if !t.armed() || n == 0 {
		return
	}
	t.invalidated.Add(uint64(n))
	t.reg.Trace(telemetry.EvInvalidate, gpc, -1, uint64(n))
}
