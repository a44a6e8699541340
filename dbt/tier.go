package dbt

import (
	"fmt"
	"math"

	"dbtrules/dbt/jitbuf"
	"dbtrules/x86"
	"dbtrules/x86/native"
)

// Tier selects the execution tier for translated blocks.
//
// The deterministic cycle model (Stats, golden snapshots) is identical
// under every tier: threading or native compilation changes how fast the
// host walks a block's instructions, never what the block computes or
// what the model charges for it. TierStats therefore lives outside
// Stats — it is wall-clock-tier accounting, not part of the modeled
// machine.
type Tier int

// Tiers. TierAuto is the zero value so a zero Engine keeps today's
// adaptive behaviour: interpret cold blocks, promote hot ones.
const (
	// TierAuto interprets cold blocks through the x86.State.Step switch,
	// promotes a block to pre-bound thunks once its ExecCount crosses the
	// promotion threshold, and (on hosts with the native back end) to
	// emitted machine code at the higher native threshold.
	TierAuto Tier = iota
	// TierInterp pins every block to the switch interpreter (the seed
	// engine's behaviour, and the differential baseline).
	TierInterp
	// TierThreaded builds thunks eagerly for every dispatched block.
	TierThreaded
	// TierNative compiles every dispatched block to host machine code
	// eagerly, falling back to threaded (then interp) when the back end
	// is unavailable or rejects the block.
	TierNative
)

// String names the tier (flag syntax).
func (t Tier) String() string {
	switch t {
	case TierInterp:
		return "interp"
	case TierThreaded:
		return "threaded"
	case TierNative:
		return "native"
	default:
		return "auto"
	}
}

// ParseTier parses the -tier flag syntax.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "auto", "":
		return TierAuto, nil
	case "interp":
		return TierInterp, nil
	case "threaded":
		return TierThreaded, nil
	case "native":
		return TierNative, nil
	}
	return TierAuto, fmt.Errorf("dbt: unknown tier %q (want interp, threaded, native, or auto)", s)
}

// DefaultPromoteThreshold is the ExecCount at which TierAuto promotes a
// block. Thunk compilation costs one pass over the block's host code, so
// a handful of switch-interpreted executions is enough evidence that the
// block will repay pre-binding; blocks executed fewer times pay nothing.
const DefaultPromoteThreshold = 8

// DefaultNativePromoteThreshold is the ExecCount at which TierAuto lifts
// an already-threaded block to emitted machine code. Native compilation
// costs an instruction-encoding pass plus two mprotect flips, an order
// of magnitude more than a thunk build, so the bar for "hot enough" sits
// an order of magnitude higher.
const DefaultNativePromoteThreshold = 64

// NativeSupported reports whether this host can run the native tier
// (amd64 back end compiled in and an executable code buffer available).
// Elsewhere TierAuto tops out at threaded and TierNative degrades the
// same way.
func NativeSupported() bool { return native.Supported() && jitbuf.Supported() }

// TierStats counts execution-tier activity. It is deliberately not part
// of Stats: the differential gate compares StatsSnapshot byte-for-byte
// across tiers, and these counters differ by construction.
type TierStats struct {
	// InterpDispatches, ThreadedDispatches, and NativeDispatches split
	// Stats.DispatchCount by the tier that executed the block.
	InterpDispatches   uint64 `json:"interp_dispatches"`
	ThreadedDispatches uint64 `json:"threaded_dispatches"`
	NativeDispatches   uint64 `json:"native_dispatches"`
	// NativeLinks is the part of NativeDispatches served by a link —
	// native block to native block inside the trampoline, with no round
	// trip through the dispatch loop (see link.go).
	NativeLinks uint64 `json:"native_links"`
	// Promotions counts thunk compilations; Demotions counts
	// thunk-promoted blocks dropped from the code cache (invalidation,
	// rule hot-swap, fault containment, stale generation) — their thunks
	// die with them, and a retranslated block starts cold again.
	// NativePromotions/NativeDemotions are the same pair one tier up.
	Promotions       uint64 `json:"promotions"`
	Demotions        uint64 `json:"demotions"`
	NativePromotions uint64 `json:"native_promotions"`
	NativeDemotions  uint64 `json:"native_demotions"`
	// NativeBailouts counts instructions a native block handed back to
	// the interpreter mid-run (TLB miss, page-straddling access, or a
	// shape compiled as a bail stub). Bails are self-limiting: the
	// engine warms the TLB from the interpreted instruction, so steady
	// state is bail-free for resident working sets.
	NativeBailouts uint64 `json:"native_bailouts,omitempty"`
	// ThunkBuildFails counts blocks pinned to the interpreter because
	// thunk compilation rejected their host code. Translate-time
	// validation (x86.CheckCode) makes this structurally unreachable for
	// engine-generated blocks; the counter is the canary if the two
	// checks ever drift. NativeBuildFails is the native back end's
	// equivalent (also counting all-bail compilations not worth placing).
	ThunkBuildFails  uint64 `json:"thunk_build_fails,omitempty"`
	NativeBuildFails uint64 `json:"native_build_fails,omitempty"`
	// NativeBufferFails counts blocks whose machine code compiled fine
	// but could not be placed — the executable buffer hit Engine.JITLimit
	// or the platform refused the mapping. Each such block stays on the
	// threaded tier for good, so a saturated buffer costs throughput,
	// never correctness.
	NativeBufferFails uint64 `json:"native_buffer_fails,omitempty"`
}

// promoteAt is the effective threaded-promotion threshold.
func (e *Engine) promoteAt() uint64 {
	if e.PromoteThreshold > 0 {
		return uint64(e.PromoteThreshold)
	}
	return DefaultPromoteThreshold
}

// nativeAt is the effective native-promotion threshold.
func (e *Engine) nativeAt() uint64 {
	if e.NativeThreshold > 0 {
		return uint64(e.NativeThreshold)
	}
	return DefaultNativePromoteThreshold
}

// noClimb is the TB.climbAt of a block pinned to its current tier: an
// ExecCount no block reaches.
const noClimb = math.MaxUint64

// install sets the run state of a freshly translated block, before it
// enters the code cache. Pinned tiers build their form here, once, with
// TierNative falling down the ladder native → threaded → interp when a
// build is rejected; TierAuto starts every block on the interpreter and
// lets exec's post-run check climb from there.
func (e *Engine) install(tb *TB) {
	tb.tier, tb.climbAt = TierInterp, noClimb
	switch e.Tier {
	case TierAuto:
		tb.climbAt = e.promoteAt()
	case TierThreaded:
		e.promote(tb)
	case TierNative:
		e.promoteNative(tb)
		if tb.tier != TierNative {
			e.promote(tb)
		}
	}
}

// climb tries the rung above tb's current tier. exec calls it once
// ExecCount reaches tb.climbAt; every outcome moves climbAt on (to the
// next rung's threshold, or noClimb), so a rung is tried at most once.
func (e *Engine) climb(tb *TB) {
	if tb.tier == TierThreaded {
		e.promoteNative(tb)
	} else {
		e.promote(tb)
	}
}

// promote compiles tb's host code into pre-bound thunks and moves the
// block to the threaded tier. On the (should be impossible, see
// TierStats.ThunkBuildFails) build failure the block is pinned where it
// is rather than erroring: threading is an optimization, never a
// correctness dependency.
func (e *Engine) promote(tb *TB) {
	tb.climbAt = noClimb
	thunks, err := x86.BuildThunks(tb.Host)
	if err != nil {
		e.TierStats.ThunkBuildFails++
		return
	}
	tb.thunks = thunks
	tb.tier = TierThreaded
	if e.Tier == TierAuto {
		tb.climbAt = e.nativeAt()
	}
	e.TierStats.Promotions++
	if t := e.tel; t.armed() {
		t.telPromote(tb, TierThreaded)
	}
}

// promoteNative compiles tb's host code to machine code, places it in
// the engine's executable buffer and moves the block to the native tier.
// Any failure (unsupported platform, compile rejection, a block that is
// all bail stubs, buffer exhaustion) pins the block where it is — like
// thunks, native execution is an optimization, never a correctness
// dependency.
func (e *Engine) promoteNative(tb *TB) {
	tb.climbAt = noClimb
	if !NativeSupported() {
		return
	}
	code, err := native.Compile(tb.Host, tb.HostCosts)
	if err != nil || code.Bails >= len(tb.Host) {
		e.TierStats.NativeBuildFails++
		return
	}
	if e.jit == nil {
		e.jit = jitbuf.New()
		e.jit.Limit = e.JITLimit
		e.nctx = native.NewCtx()
		e.nctx.Stop = &e.offerFlag
		e.nctx.StackTop = HostStackTop
		e.nctx.LinkCycles = costDispatchChained
	}
	entry, perr := e.jit.Place(code.Text)
	if perr != nil {
		// The compile succeeded; only placement failed (buffer at
		// JITLimit, or the platform refusing executable memory). The
		// block stays on the tier below rather than losing the promotion
		// silently.
		e.TierStats.NativeBufferFails++
		if t := e.tel; t.armed() {
			t.bufferFails.Inc()
		}
		return
	}
	tb.native = code
	tb.nativeEntry = entry
	tb.nativeGen = e.jit.Gen()
	tb.tier = TierNative
	e.newLink(tb)
	e.TierStats.NativePromotions++
	if t := e.tel; t.armed() {
		t.telPromote(tb, TierNative)
		t.codeBytes.Set(uint64(e.jit.Bytes()))
	}
}

// demoteNative sheds native code whose buffer generation went stale (the
// backstop in exec). A block that climbed here through thunks drops back
// to them and the next post-run check recompiles it; one installed
// straight onto the native tier is installed afresh.
func (e *Engine) demoteNative(tb *TB) {
	tb.native, tb.nativeEntry = nil, 0
	e.unlink(tb)
	e.TierStats.NativeDemotions++
	if tb.thunks != nil {
		tb.tier, tb.climbAt = TierThreaded, 0
	} else {
		e.install(tb)
	}
}

// drop is the one way a block leaves the code cache. Every removal path
// (Invalidate, rule hot-swap flush, fault containment, the
// stale-generation backstop) calls it, so the slot, the count, the
// demotions in TierStats, lastTB and the link table always agree with
// the cache's contents: the next dispatch can neither chain from nor
// patch a block that is gone, and no link leads to it. Callers add their
// own Stats and telemetry lines.
func (e *Engine) drop(tb *TB) {
	if tb.thunks != nil {
		e.TierStats.Demotions++
	}
	if tb.native != nil {
		e.TierStats.NativeDemotions++
	}
	e.unlink(tb)
	e.tbs[tb.EntryGPC] = nil
	e.tbCount--
	if e.lastTB == tb {
		e.lastTB = nil
	}
}
