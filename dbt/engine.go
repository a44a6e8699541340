package dbt

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dbtrules/arm"
	"dbtrules/dbt/jitbuf"
	"dbtrules/internal/faultinject"
	"dbtrules/mach"
	"dbtrules/prog"
	"dbtrules/rules"
	"dbtrules/x86"
	"dbtrules/x86/native"
)

// Backend selects the translation strategy.
type Backend int

// Backends.
const (
	// BackendQEMU is the TCG-style per-instruction baseline.
	BackendQEMU Backend = iota
	// BackendRules applies learned translation rules with TCG fallback.
	BackendRules
	// BackendJIT post-optimizes the baseline translation at a high
	// translation cost (the HQEMU/LLVM-JIT stand-in).
	BackendJIT
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendRules:
		return "rules"
	case BackendJIT:
		return "llvm-jit"
	default:
		return "qemu"
	}
}

// TB is one translated block.
type TB struct {
	EntryGPC   int
	GuestLen   int
	Host       []x86.Instr
	Covered    []bool // per guest instruction: translated by a rule
	TransCost  uint64
	ExecCount  uint64
	CoveredCnt int
	// HostCosts caches hostCost per host instruction at translate time,
	// so the exec loop indexes a slice instead of re-classifying the
	// instruction on every dynamic step.
	HostCosts []uint64
	// succ records the successor entry GPCs this block's exit jump has
	// been patched (chained) to. Out-degree is tiny (direct branches have
	// ≤ 2 targets; indirect exits a handful of return sites), so a linear
	// scan beats any map. For a native block whose successor is native
	// too the patch is real: exec writes the edge into the block's link
	// record, and the trampoline's link stub follows it without coming
	// back to the dispatch loop (see link.go).
	succ []int32
	// Gen is the entry page's generation counter at translate time; a
	// mismatch at dispatch means the page was invalidated after this block
	// was built (see Engine.Invalidate).
	Gen uint32
	// ruleIDs lists the learned rules that contributed host code, so an
	// execution fault in this block can quarantine them.
	ruleIDs []int
	// tier and climbAt are the block's run state (see tier.go): tier is
	// the form exec runs — TierInterp (Host through Step), TierThreaded
	// (thunks) or TierNative (native) — and climbAt is the ExecCount at
	// which TierAuto tries the next rung, noClimb once the block is pinned
	// where it is. Only install, promote, promoteNative and demoteNative
	// write them; exec just reads tier.
	tier    Tier
	climbAt uint64
	// thunks is the threaded-tier form of Host: one pre-bound closure per
	// host instruction. Dropped with the block on any cache eviction,
	// which is what demotion means here.
	thunks []x86.Thunk
	// native is the native-tier form of Host: emitted amd64 machine code
	// placed in the engine's executable buffer, entered at nativeEntry
	// (see x86/native). nativeGen is the buffer generation the code was
	// placed under — a mismatch at dispatch means the buffer was reset
	// (rule hot-swap flush) and the entry pointer is dead.
	native      *native.Code
	nativeEntry uintptr
	nativeGen   uint64
	// link is the native block's link record (see x86/native.Link),
	// allocated with its code and nil on every other tier.
	link *native.Link
}

// chainedTo reports whether this block's exit is already patched to jump
// to the TB at gpc.
func (tb *TB) chainedTo(gpc int) bool {
	for _, s := range tb.succ {
		if int(s) == gpc {
			return true
		}
	}
	return false
}

// Stats aggregates the measurements behind Figures 8–12.
type Stats struct {
	GuestInstrs   uint64 // dynamically executed guest instructions
	HostInstrs    uint64 // dynamically executed host instructions
	ExecCycles    uint64
	TransCycles   uint64
	DispatchCount uint64
	TBCount       uint64

	// Rule application (translation-time).
	RuleHitsByLen  map[int]uint64
	StaticCovered  uint64
	StaticTotal    uint64
	DynCovered     uint64 // guest instructions executed under rule translations
	DynTotal       uint64
	RuleApplyFails uint64 // matched but rejected (constraints)
	ChainHits      uint64 // dispatches served by a chained (patched) edge

	// Code-size accounting (static, translation-time): the paper's §1
	// code-expansion argument made measurable. Guest bytes are 4 per
	// instruction; host bytes use the length-accurate encoder.
	GuestCodeBytes uint64
	HostCodeBytes  uint64

	// Fault containment (see faults.go and invalidate.go).
	Faults           uint64 // panics/failures contained at the translate/exec boundary
	Recoveries       uint64 // contained faults followed by a successful retry
	QuarantinedRules uint64 // rules pulled from the store after a fault
	InvalidatedTBs   uint64 // blocks discarded (faults + Invalidate + stale generations)
}

// Expansion returns host bytes per guest byte over all translated blocks.
func (s *Stats) Expansion() float64 {
	if s.GuestCodeBytes == 0 {
		return 0
	}
	return float64(s.HostCodeBytes) / float64(s.GuestCodeBytes)
}

// TotalCycles is the modeled end-to-end time (dispatch costs are folded
// into ExecCycles by the chaining model).
func (s *Stats) TotalCycles() uint64 {
	return s.ExecCycles + s.TransCycles
}

// Engine is one emulated program run context.
type Engine struct {
	Guest   *prog.ARM
	Backend Backend
	Rules   *rules.Store
	// ShortestMatch flips §4's longest-match scan to shortest-first (an
	// ablation knob).
	ShortestMatch bool
	// DisableRuleFlagSave forces rule windows that set live flags to fall
	// back to TCG (ablation for the §5 machinery).
	DisableRuleFlagSave bool

	// DisableChaining turns off block chaining (every TB entry pays the
	// full dispatch cost — the pre-chaining QEMU behaviour).
	DisableChaining bool

	// Tier selects the execution tier (see tier.go). The zero value is
	// TierAuto: interpret cold blocks, promote hot ones to pre-bound
	// thunks. The deterministic cycle model is identical under every
	// tier; only wall-clock speed and TierStats differ. Tier and the two
	// thresholds are read when a block is installed in the code cache, so
	// set them before the first Run.
	Tier Tier
	// PromoteThreshold overrides DefaultPromoteThreshold when positive:
	// the ExecCount at which TierAuto promotes a block.
	PromoteThreshold int
	// NativeThreshold overrides DefaultNativePromoteThreshold when
	// positive: the ExecCount at which TierAuto lifts a block to native.
	// The ladder is climbed a rung at a time, so a value below the
	// threaded threshold acts as equal to it.
	NativeThreshold int
	// JITLimit caps the native tier's executable code buffer in bytes
	// (0 = unlimited). A block that no longer fits is shed to the
	// threaded tier (TierStats.NativeBufferFails) instead of erroring —
	// the knob an operator uses to bound per-engine code memory on a
	// dense fleet. Takes effect when the buffer is first created, i.e.
	// set it before the first native promotion.
	JITLimit int
	// TierStats counts per-tier dispatches and block promotions /
	// demotions. Deliberately outside Stats (see tier.go).
	TierStats TierStats

	// tbs is the code cache, direct-mapped by guest entry PC: one slot
	// per guest instruction, so dispatch is a bounds-checked load rather
	// than a map probe.
	tbs     []*TB
	tbCount int
	lastTB  *TB
	// idx is the frozen lock-free snapshot of Rules the translator matches
	// against; scan amortizes the per-block prefix sums across every
	// window probe in a TB. Only scanner (and adoptOffered, which installs
	// a snapshot frozen by the offering goroutine) assigns them.
	idx  *rules.Index
	scan *rules.BlockScanner
	st   *x86.State
	// env is the resident page of st.Mem holding the guest CPU state
	// block, held from the first Run on (pages never move, see
	// mach.Memory.PageBase) so the dispatch loop reads the guest pc
	// without a page lookup.
	env *[mach.PageSize]byte
	// pageGen holds per-page generation counters for TB invalidation
	// (tbPageShift instructions per page); a TB whose Gen lags its entry
	// page's counter is retranslated at dispatch.
	pageGen []uint32
	// forceTCG pins guest entries to pure-TCG translation after a fault
	// that could not be pinned on a rule (lazily allocated — empty on the
	// fault-free path).
	forceTCG map[int]bool
	// faultRetries counts contained faults per entry PC within one Run,
	// bounding the containment loop (see maxFaultRetries). Allocated on
	// the first fault like forceTCG, and emptied, not reallocated, by
	// each Run.
	faultRetries map[int]int
	// curRule is the rule currently being applied by the translator, for
	// fault attribution; it is only non-nil inside tryRules.
	curRule *rules.Rule
	// curTB is the block being executed, for fault attribution by the
	// dispatch loop's recover (a plain store per dispatch keeps the hot
	// path free of per-block defers).
	curTB *TB
	// jit is the executable code buffer backing the native tier; nctx is
	// the per-engine native execution context (software TLB plus exit
	// state). Both are allocated lazily on the first native promotion, so
	// engines that never reach the native tier pay nothing.
	jit  *jitbuf.Buf
	nctx *native.Ctx
	// linkTBs is the link table: the native block owning each link
	// record, indexed by Link.ID, nil where the block was dropped. It
	// grows by one per native promotion and is emptied with the code
	// buffer. linked is set once any record holds a link, so a burst of
	// drops unlinks the table once.
	linkTBs []*TB
	linked  bool
	// maxGuest is the running Run's guest-instruction budget, which the
	// link stub's countdown must not pass.
	maxGuest uint64
	// tel holds the pre-resolved telemetry handles, nil unless
	// SetTelemetry attached a registry (see telemetry.go). Every hook
	// site is gated on nil-ness plus the registry's armed bit, so an
	// un-instrumented engine's behaviour and Stats are bit-identical.
	tel *engineTel
	// ruleHits, when EnableRuleHits allocated it, counts block dispatches
	// per contributing rule ID (see rulehits.go). Outside Stats: it
	// observes the run, never feeds the cycle model.
	ruleHits map[int]uint64
	Stats    Stats
	// offer holds a pending rule-set swap from OfferRules, adopted at the
	// next safe point (see swap.go); offerFlag is 1 while one is pending.
	// Engines that never subscribe pay one atomic load of offerFlag per
	// dispatch iteration, and the native link stub polls the same word
	// (native.Ctx.Stop) so an offer also ends a chain of links.
	offerMu   sync.Mutex
	offer     *offeredRules
	offerFlag atomic.Uint32
}

// NewEngine prepares an engine for a guest binary.
func NewEngine(g *prog.ARM, backend Backend, store *rules.Store) *Engine {
	e := &Engine{
		Guest:   g,
		Backend: backend,
		Rules:   store,
		tbs:     make([]*TB, len(g.Code)),
		pageGen: make([]uint32, (len(g.Code)>>tbPageShift)+1),
		st:      x86.NewState(),
	}
	e.Stats.RuleHitsByLen = map[int]uint64{}
	return e
}

// scanner points the engine's block scanner at block and returns it,
// first refreezing the index when Rules has moved past the snapshot: an
// Add between or during Runs, this engine's own quarantine, or another
// engine quarantining in a shared store are all seen by the next block
// translated. The check is one atomic load, paid per translated block,
// never per dispatch; cached blocks keep the code they were built with.
func (e *Engine) scanner(block []arm.Instr) *rules.BlockScanner {
	if e.idx == nil || e.idx.Version() != e.Rules.Version() {
		if e.idx != nil {
			e.tel.telRefreeze()
		}
		e.idx = e.Rules.Freeze()
		e.scan = nil
	}
	if e.scan == nil {
		e.scan = e.idx.NewBlockScanner(block)
	} else {
		e.scan.Reset(block)
	}
	return e.scan
}

// readEnv reads one word of the CPU state block through e.env, counted
// exactly as Memory.Read32 counts it.
func (e *Engine) readEnv(addr uint32) uint32 {
	e.st.Mem.Reads += 4
	return binary.LittleEndian.Uint32(e.env[addr&(mach.PageSize-1):])
}

func (e *Engine) setEnv(addr uint32, v uint32) { e.st.Mem.Write32(addr, v) }

// Mem exposes the shared guest/host memory (for input setup).
func (e *Engine) Mem() *mach.Memory { return e.st.Mem }

// Run emulates the named guest function with the given arguments until it
// returns, and returns guest r0.
func (e *Engine) Run(fn string, args []uint32, maxGuestInstrs uint64) (uint32, error) {
	f := e.Guest.FuncByName(fn)
	if f == nil {
		return 0, fmt.Errorf("dbt: no guest function %q", fn)
	}
	if t := e.tel; t.armed() {
		defer t.runNS.ObserveSince(time.Now())
	}
	// A fresh run has no predecessor block: without this reset a second
	// Run would chain a phantom edge from the previous run's final TB to
	// this run's entry.
	e.lastTB = nil
	// The fault-retry budget is per Run: a fault contained long ago must
	// not eat into this run's allowance.
	clear(e.faultRetries)
	e.maxGuest = maxGuestInstrs
	e.adoptOffered()
	for r := arm.Reg(0); r < arm.NumRegs; r++ {
		e.setEnv(EnvReg(r), 0)
	}
	for i, a := range args {
		e.setEnv(EnvReg(arm.Reg(i)), a)
	}
	e.setEnv(EnvReg(arm.SP), prog.StackTop)
	e.setEnv(EnvReg(arm.LR), prog.HaltPC)
	e.setEnv(EnvPC, uint32(f.Entry))
	e.setEnv(EnvCCFmt, ccFmtSlots)
	// NZCV all clear, like a fresh arm.State. The ZF slot encodes Z as
	// "word == 0", so Z-clear needs a nonzero word.
	e.setEnv(EnvNF, 0)
	e.setEnv(EnvZF, 1)
	e.setEnv(EnvCF, 0)
	e.setEnv(EnvVF, 0)
	e.env = e.st.Mem.PageBase(EnvBase)

	e.curTB = nil
	for {
		ret, done, err := e.dispatchLoop(maxGuestInstrs)
		if done {
			return ret, err
		}
		// A fault was contained mid-loop: re-enter with a fresh guard.
	}
}

// dispatchLoop runs blocks until the guest halts, errors, or a panic
// escapes a TB. One deferred recover covers the whole loop — the
// per-dispatch fast path pays a plain curTB store instead of a defer —
// and a contained execution fault returns done=false so Run re-enters
// the loop with a fresh guard.
func (e *Engine) dispatchLoop(maxGuestInstrs uint64) (ret uint32, done bool, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		tb := e.curTB
		if tb == nil {
			// A panic outside TB execution (dispatch bookkeeping itself):
			// not containable, let it surface.
			panic(p)
		}
		fe := &FaultError{
			Point:   pointOfPanic(p),
			GuestPC: tb.EntryGPC,
			TBEntry: tb.EntryGPC,
			RuleID:  -1,
			Panic:   p,
		}
		if e.containExec(fe, tb) {
			return // done stays false: Run re-enters the loop
		}
		done, err = true, fe
	}()
	for {
		// Between blocks is a safe point: adopt a pending rule-set swap
		// (one atomic load when none is pending).
		e.adoptOffered()
		gpc := int(e.readEnv(EnvPC))
		if gpc == prog.HaltPC {
			return e.readEnv(EnvReg(arm.R0)), true, nil
		}
		if gpc < 0 || gpc >= len(e.Guest.Code) {
			return 0, true, fmt.Errorf("dbt: guest pc %d out of range", gpc)
		}
		tb, terr := e.tb(gpc)
		if terr != nil {
			// Contained translation faults re-dispatch the same guest PC
			// (the rule is quarantined or the entry pinned to TCG, so the
			// retry translates cleanly); anything else surfaces.
			if fe, ok := terr.(*FaultError); !ok || !e.contain(fe, gpc) {
				return 0, true, terr
			}
			continue
		}
		e.curTB = tb
		e.exec(tb)
		e.curTB = nil
		if e.Stats.GuestInstrs > maxGuestInstrs {
			return 0, true, fmt.Errorf("dbt: guest instruction budget (%d) exhausted", maxGuestInstrs)
		}
	}
}

// tb returns (translating on miss) the block starting at gpc. Cached
// blocks are generation-checked against their entry page: Invalidate
// clears overlapping blocks eagerly, so a mismatch here is the backstop
// for a stale block that slipped past the sweep.
func (e *Engine) tb(gpc int) (*TB, error) {
	if tb := e.tbs[gpc]; tb != nil {
		if tb.Gen == e.pageGen[gpc>>tbPageShift] {
			return tb, nil
		}
		e.drop(tb)
		e.Stats.InvalidatedTBs++
		e.tel.telInvalidate(gpc, 1)
	}
	var telT0 time.Time
	telArmed := e.tel.armed()
	if telArmed {
		telT0 = time.Now()
	}
	tb, err := e.translateGuarded(gpc)
	if err != nil {
		return nil, err
	}
	if telArmed {
		e.tel.telTranslate(gpc, tb, telT0)
	}
	e.install(tb)
	tb.Gen = e.pageGen[gpc>>tbPageShift]
	e.tbs[gpc] = tb
	e.tbCount++
	e.Stats.TBCount++
	e.Stats.TransCycles += tb.TransCost
	e.Stats.StaticTotal += uint64(tb.GuestLen)
	e.Stats.StaticCovered += uint64(tb.CoveredCnt)
	e.Stats.GuestCodeBytes += 4 * uint64(tb.GuestLen)
	for _, in := range tb.Host {
		e.Stats.HostCodeBytes += uint64(x86.EncodedLen(in))
	}
	return tb, nil
}

// exec runs one TB to its exit, counting cycles. Dispatch cost models
// QEMU-style block chaining: the first traversal of a (predecessor,
// successor) edge pays the code-cache lookup, later traversals pay only
// the patched direct jump. Which form of the block runs is tb.tier, set
// when the block was installed or last promoted (see tier.go).
//
// A panic while executing host code unwinds into dispatchLoop's recover
// and is contained there (attributed via e.curTB); injected faults fire
// before any state or stats mutation, so containment can re-dispatch the
// block exactly. The Enabled guard keeps the disarmed injection cost to
// one inlined atomic load (Fire itself is too large to inline).
func (e *Engine) exec(tb *TB) {
	if faultinject.Enabled() && faultinject.Fire(faultinject.InterpPanic) {
		panic(injectedPanic{point: faultinject.InterpPanic})
	}
	chained := false
	prev := e.lastTB
	if !e.DisableChaining && prev != nil && prev.chainedTo(tb.EntryGPC) {
		e.Stats.ExecCycles += costDispatchChained
		e.Stats.ChainHits++
		chained = true
	} else {
		e.Stats.ExecCycles += costDispatchMiss
		if !e.DisableChaining && prev != nil {
			// Patch the predecessor's exit jump: chaining is a property
			// of the predecessor block, so an edge from the dispatcher
			// itself (prev == nil, the run's first block) has no jump to
			// patch and always pays the full lookup.
			prev.succ = append(prev.succ, int32(tb.EntryGPC))
		}
	}
	e.lastTB = tb
	e.st.R[x86.ESP] = HostStackTop
	// The three loops are cycle-model-identical: each charges HostCosts[pc]
	// and one HostInstr per step, and both the thunks and the emitted
	// machine code reproduce Step's semantics exactly (pinned by
	// FuzzThreadedMatchesStep, FuzzNativeMatchesStep, and the cross-tier
	// golden differential). The faster loops accumulate into locals —
	// uint64 addition is associative, so the sums are bit-equal.
run:
	switch tb.tier {
	case TierNative:
		if tb.nativeGen != e.jit.Gen() {
			// Backstop: the code buffer was reset under this block and its
			// entry pointer is dead (a rule hot-swap flush drops every
			// cached block first, so this should not happen). Shed the
			// code and run the form the block falls back to.
			e.demoteNative(tb)
			goto run
		}
		// A chained edge between two native blocks becomes a link; a
		// record whose slots are all taken keeps it on this loop.
		if chained && prev.link != nil && prev.link.Add(int64(tb.EntryGPC), tb.nativeEntry, tb.link) {
			e.linked = true
		}
		// Links may carry the run on past tb: lastTB is the block that
		// ran last, and the dispatches the stub served are in Stats.
		e.lastTB = e.execNative(tb)
		e.TierStats.NativeDispatches++
	case TierThreaded:
		thunks, costs, st := tb.thunks, tb.HostCosts, e.st
		var cycles, instrs uint64
		pc := 0
		for pc >= 0 && pc < len(thunks) {
			cycles += costs[pc]
			instrs++
			pc = thunks[pc](st)
		}
		e.Stats.ExecCycles += cycles
		e.Stats.HostInstrs += instrs
		e.TierStats.ThreadedDispatches++
	default:
		pc := 0
		for pc >= 0 && pc < len(tb.Host) {
			e.Stats.ExecCycles += tb.HostCosts[pc]
			e.Stats.HostInstrs++
			pc = e.st.Step(tb.Host[pc], pc)
		}
		e.TierStats.InterpDispatches++
	}
	execTier := tb.tier
	tb.ExecCount++
	for tb.ExecCount >= tb.climbAt {
		e.climb(tb)
	}
	e.Stats.DispatchCount++
	e.Stats.GuestInstrs += uint64(tb.GuestLen)
	e.Stats.DynTotal += uint64(tb.GuestLen)
	e.Stats.DynCovered += uint64(tb.CoveredCnt)
	if e.ruleHits != nil && len(tb.ruleIDs) != 0 {
		for _, id := range tb.ruleIDs {
			e.ruleHits[id]++
		}
	}
	// Telemetry last, after all deterministic state has moved: the
	// disarmed cost is the armed() load; the counters never feed back
	// into the cycle model.
	if t := e.tel; t.armed() {
		t.telDispatch(tb, chained, execTier)
	}
}

// execNative runs one TB through its emitted machine code, and returns
// the block that ran last: tb itself, or the last of the chained native
// successors the trampoline's link stub went on to (see link.go). The code
// charges the cycle model itself (into ctx.Cycles/Instrs, drained here
// after every return); a bail hands exactly one instruction of the block
// running then back to the Step interpreter — charged identically — then
// warms the TLB with the pages that instruction touched and re-enters
// that block at the next instruction's entry offset. The result is
// bit-identical Stats to the other tiers: every executed instruction is
// charged exactly once, by exactly one side, and every linked dispatch
// exactly as exec's chained path charges it.
func (e *Engine) execNative(tb *TB) *TB {
	st, ctx := e.st, e.nctx
	ctx.Cur = 0
	if tb.link != nil && e.linkable() {
		ctx.Cur, ctx.CurID = uintptr(unsafe.Pointer(tb.link)), tb.link.ID
		ctx.Left = e.linkAllowance(tb)
		ctx.EnvPC = (*uint32)(unsafe.Pointer(&e.env[EnvPC&(mach.PageSize-1)]))
	}
	var bails uint64
	pc := 0
	for pc >= 0 && pc < len(tb.Host) {
		ctx.Bail = 0
		native.Enter(tb.nativeEntry+uintptr(tb.native.Offsets[pc]), st, ctx)
		e.Stats.ExecCycles += ctx.Cycles
		e.Stats.HostInstrs += ctx.Instrs
		ctx.Cycles, ctx.Instrs = 0, 0
		if n := ctx.Links; n != 0 {
			tb = e.linkTBs[ctx.CurID]
			e.curTB = tb
			e.Stats.DispatchCount += n
			e.Stats.ChainHits += n
			e.Stats.GuestInstrs += ctx.LinkGuest
			e.Stats.DynTotal += ctx.LinkGuest
			e.Stats.DynCovered += ctx.LinkCovered
			e.TierStats.NativeDispatches += n
			e.TierStats.NativeLinks += n
			ctx.Links, ctx.LinkGuest, ctx.LinkCovered = 0, 0, 0
		}
		pc = int(ctx.NextPC)
		if ctx.Bail == 0 {
			continue
		}
		// Bailed before executing tb.Host[pc]: capture the guest addresses
		// it will touch (operand EAs, the stack word for push/pop shapes)
		// before Step moves ESP, run it through the interpreter, then
		// install the now-resident pages so the next native pass hits.
		bails++
		in := tb.Host[pc]
		if t := e.tel; t.armed() {
			// Shape attribution (dbt_native_bailouts_total{shape=...}):
			// classify the instruction the emitter compiled as a bail stub
			// (Code.Bails) or that missed the TLB, so operators see which
			// shapes hand time back to the interpreter. Bails are rare and
			// self-limiting, so the per-bail map lookup is off any hot path.
			t.telNativeBailShape(bailShape(in))
		}
		var warm [3]uint32
		n := 0
		if in.Src.Kind == x86.KMem {
			warm[n] = st.EA(in.Src.Mem)
			n++
		}
		if in.Dst.Kind == x86.KMem {
			warm[n] = st.EA(in.Dst.Mem)
			n++
		}
		switch in.Op {
		case x86.PUSH, x86.CALL, x86.PUSHF:
			warm[n] = st.R[x86.ESP] - 4
			n++
		case x86.POP, x86.RET, x86.POPF:
			warm[n] = st.R[x86.ESP]
			n++
		}
		e.Stats.ExecCycles += tb.HostCosts[pc]
		e.Stats.HostInstrs++
		pc = st.Step(in, pc)
		for i := 0; i < n; i++ {
			ctx.Install(warm[i], st.Mem.PageBase(warm[i]))
		}
	}
	e.TierStats.NativeBailouts += bails
	if t := e.tel; t.armed() {
		t.telNativeBails(bails)
	}
	return tb
}

// discover returns the guest basic block starting at gpc.
func (e *Engine) discover(gpc int) []arm.Instr {
	f := e.Guest.FuncAt(gpc)
	end := len(e.Guest.Code)
	if f != nil {
		end = f.End
	}
	var out []arm.Instr
	for i := gpc; i < end && len(out) < MaxTBLen; i++ {
		in := e.Guest.Code[i]
		out = append(out, in)
		if in.EndsBlock() {
			break
		}
	}
	return out
}

// translate builds the TB for gpc under the configured backend.
func (e *Engine) translate(gpc int) (*TB, error) {
	block := e.discover(gpc)
	tb := &TB{EntryGPC: gpc, GuestLen: len(block), Covered: make([]bool, len(block))}

	t := newTranslator()
	var cost uint64 = transTCGPerTB
	if e.Backend == BackendJIT {
		cost = transJITPerTB
	}
	if e.Backend == BackendRules {
		cost = transRulePerTB
	}

	// A fault at this entry that could not be pinned on a rule pins the
	// entry to pure-TCG translation (the containment path's safe retry).
	useRules := e.Backend == BackendRules && e.Rules != nil && !e.forceTCG[gpc]

	var sc *rules.BlockScanner
	if useRules {
		sc = e.scanner(block)
	}

	i := 0
	for i < len(block) {
		in := block[i]
		// Rule application first (rules backend only).
		if useRules {
			if n := e.tryRules(t, tb, sc, block, i, gpc); n > 0 {
				cost += uint64(n) * transRulePerInstr
				i += n
				continue
			}
		}
		// Control flow terminates the block.
		if in.EndsBlock() {
			if err := e.translateExit(t, in, gpc+i); err != nil {
				return nil, err
			}
			cost += e.perInstrCost()
			i++
			continue
		}
		if faultinject.Enabled() && faultinject.Fire(faultinject.CodegenPanic) {
			panic(injectedPanic{point: faultinject.CodegenPanic})
		}
		if err := t.translateInstr(in); err != nil {
			return nil, fmt.Errorf("dbt: tb at %d: %v", gpc, err)
		}
		cost += e.perInstrCost()
		i++
	}
	// Fall-through exit (block ended by length cap or function end).
	if n := len(block); n > 0 {
		if !block[n-1].EndsBlock() {
			t.cache.writebackAll()
			t.a.storeEnvImm(uint32(gpc+n), EnvPC)
		}
	}
	tb.Host = t.a.finalize()
	if e.Backend == BackendJIT {
		tb.Host = optimizeHost(tb.Host)
	}
	// Operand validation moved here from the Step hot switch: host code
	// with shapes the interpreter (or a thunk) has no semantics for is a
	// containable fault at translate time, before any of it executes. A
	// single contributing rule gets the attribution (so containment
	// quarantines it); otherwise the entry is pinned to TCG on retry.
	if cerr := x86.CheckCode(tb.Host); cerr != nil {
		ruleID := -1
		if len(tb.ruleIDs) == 1 {
			ruleID = tb.ruleIDs[0]
		}
		return nil, &FaultError{
			Point:   "invalid-host-code",
			GuestPC: gpc,
			TBEntry: -1,
			RuleID:  ruleID,
			Panic:   cerr,
		}
	}
	tb.HostCosts = make([]uint64, len(tb.Host))
	for k, in := range tb.Host {
		tb.HostCosts[k] = hostCost(in)
	}
	for _, c := range tb.Covered {
		if c {
			tb.CoveredCnt++
		}
	}
	tb.TransCost = cost
	return tb, nil
}

func (e *Engine) perInstrCost() uint64 {
	switch e.Backend {
	case BackendJIT:
		return transJITPerInstr
	default:
		return transTCGPerInstr
	}
}

// translateExit emits the host code for a block-terminating guest
// instruction.
func (e *Engine) translateExit(t *translator, in arm.Instr, gpc int) error {
	switch in.Op {
	case arm.B:
		if in.Cond == arm.AL {
			t.cache.writebackAll()
			t.a.storeEnvImm(uint32(in.Target), EnvPC)
			return nil
		}
		t.cache.writebackAll()
		taken := t.condEval(in.Cond)
		t.a.storeEnvImm(uint32(gpc+1), EnvPC)
		t.a.jmpEnd()
		for _, p := range taken {
			t.a.patchHere(p)
		}
		t.a.storeEnvImm(uint32(in.Target), EnvPC)
		return nil
	case arm.BL:
		pinned := map[x86.Reg]bool{}
		hlr := t.cache.alloc(arm.LR, pinned)
		t.a.movImm(uint32(gpc+1), hlr)
		t.cache.markDirty(arm.LR)
		t.cache.writebackAll()
		t.a.storeEnvImm(uint32(in.Target), EnvPC)
		return nil
	case arm.BX:
		pinned := map[x86.Reg]bool{}
		hrn := t.cache.ensure(in.Rn, pinned)
		t.a.movRR(hrn, scratchA)
		t.cache.writebackAll()
		t.a.storeEnv(scratchA, EnvPC)
		return nil
	case arm.POP:
		// pop {..., pc}: restore registers, then jump through the loaded pc.
		list := in.RegList &^ (1 << arm.PC)
		if list != 0 {
			if err := t.translatePop(arm.Instr{Op: arm.POP, Cond: arm.AL, RegList: list}); err != nil {
				return err
			}
		}
		pinned := map[x86.Reg]bool{}
		hsp := t.cache.ensure(arm.SP, pinned)
		t.a.emit(x86.Instr{Op: x86.MOV,
			Src: x86.MemOp(x86.MemRef{HasBase: true, Base: hsp}), Dst: x86.RegOp(scratchA)})
		t.a.emit(x86.Instr{Op: x86.ADD, Src: x86.ImmOp(4), Dst: x86.RegOp(hsp)})
		t.cache.markDirty(arm.SP)
		t.cache.writebackAll()
		t.a.storeEnv(scratchA, EnvPC)
		return nil
	}
	return fmt.Errorf("dbt: unexpected exit instruction %s", in)
}

// TBs exposes the translated blocks (diagnostics and coverage analysis),
// in guest-address order.
func (e *Engine) TBs() []*TB {
	out := make([]*TB, 0, e.tbCount)
	for _, tb := range e.tbs {
		if tb != nil {
			out = append(out, tb)
		}
	}
	return out
}
