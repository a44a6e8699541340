package learn

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"dbtrules/arm"
	"dbtrules/bitblast"
	"dbtrules/expr"
	"dbtrules/internal/faultinject"
	"dbtrules/internal/telemetry"
	"dbtrules/rules"
	"dbtrules/x86"
)

// Options tunes the learner.
type Options struct {
	// MaxPermutations caps the live-in register mapping attempts (§3.2
	// uses 5).
	MaxPermutations int
	// Equiv configures the equivalence ladder.
	Equiv *bitblast.Options
	// DisableImmParams forces all immediates to stay literal (ablation).
	DisableImmParams bool
	// CombineLines, when >= 2, additionally extracts candidates spanning
	// up to that many adjacent source lines (longer many-to-many rules;
	// see ExtractCombined). 0 or 1 keeps the paper's per-line extraction.
	CombineLines int
	// Jobs is the number of worker goroutines candidate verification fans
	// out over (the learning phase is embarrassingly parallel across
	// candidates). 0 or 1 keeps the paper's serial pipeline; any value
	// produces byte-identical rule sets (see LearnCandidates).
	Jobs int
	// Telemetry, when non-nil and armed, receives per-worker phase timing
	// (learn_phase_ns_total{phase,worker}) and candidate/rule counts from
	// every LearnCandidates run. Telemetry never changes what is learned.
	Telemetry *telemetry.Registry
	// PublishTo, when non-nil, receives every learned rule at the merge
	// step of LearnCandidates — the point where rule IDs are final — so a
	// live store (e.g. one a dist.Server is serving from) sees new rules
	// as soon as each batch lands, not only after the whole corpus is
	// done. The store's own dedup decides winners; publishing never
	// changes what is learned or the returned rule list.
	PublishTo *rules.Store
}

// publish pushes a merged batch into Options.PublishTo, if set, in the
// batch's order; the store's dedup decides winners rule by rule.
func (o Options) publish(out []*rules.Rule) {
	if o.PublishTo == nil || len(out) == 0 {
		return
	}
	o.PublishTo.AddAll(out)
}

func (o *Options) withDefaults() Options {
	out := Options{MaxPermutations: 5}
	if o != nil {
		out = *o
		if out.MaxPermutations <= 0 {
			out.MaxPermutations = 5
		}
	}
	if out.Jobs < 1 {
		out.Jobs = 1
	}
	if out.Equiv == nil {
		// A tight solver budget keeps whole-corpus learning fast; queries
		// the budget cannot decide land in the paper's timeout column.
		out.Equiv = &bitblast.Options{RandomTrials: 48, SATBudget: 1500}
	}
	return out
}

// Stats accumulates Table-1 accounting, including the per-phase time
// split behind the paper's observation that ~95% of learning time is spent
// in verification.
type Stats struct {
	Counts     [NumBuckets]int
	Candidates int
	PrepTime   time.Duration
	ParamTime  time.Duration
	VerifyTime time.Duration
	TotalTime  time.Duration
}

// Add accumulates another stats block.
func (s *Stats) Add(o *Stats) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Candidates += o.Candidates
	s.PrepTime += o.PrepTime
	s.ParamTime += o.ParamTime
	s.VerifyTime += o.VerifyTime
	s.TotalTime += o.TotalTime
}

// Learner learns rules from candidates.
type Learner struct {
	opts   Options
	nextID int

	// Per-phase accumulated durations, harvested by LearnCandidates.
	prepDur   time.Duration
	paramDur  time.Duration
	verifyDur time.Duration
}

// NewLearner returns a learner.
func NewLearner(opts *Options) *Learner {
	return &Learner{opts: opts.withDefaults(), nextID: 1}
}

// --- preparation (§3.1) -------------------------------------------------

func prepare(c *Candidate) (Bucket, bool) {
	for _, in := range c.Guest {
		switch in.Op {
		case arm.BL, arm.BX, arm.PUSH, arm.POP:
			return PrepCI, false
		}
		if in.Predicated() {
			return PrepPI, false
		}
	}
	for _, in := range c.Host {
		switch in.Op {
		case x86.CALL, x86.RET, x86.PUSH, x86.POP:
			return PrepCI, false
		}
	}
	// Branches legal only as a trailing conditional pair.
	for i, in := range c.Guest {
		if in.Op == arm.B && (in.Cond == arm.AL || i != len(c.Guest)-1) {
			return PrepMB, false
		}
	}
	for i, in := range c.Host {
		if in.Op == x86.JMP || (in.Op == x86.JCC && i != len(c.Host)-1) {
			return PrepMB, false
		}
	}
	return Learned, true
}

// --- memory operand classification --------------------------------------

type memOp struct {
	instr int
	name  string
	read  bool
	size  int
	occ   int // occurrence index among same (name, read-kind)
}

func guestMemOps(c *Candidate) []memOp {
	var out []memOp
	occ := map[string]int{}
	for i, in := range c.Guest {
		var read bool
		var size int
		switch in.Op {
		case arm.LDR:
			read, size = true, 4
		case arm.LDRB:
			read, size = true, 1
		case arm.STR:
			read, size = false, 4
		case arm.STRB:
			read, size = false, 1
		default:
			continue
		}
		name := c.GuestVars[i]
		key := fmt.Sprintf("%s/%t", name, read)
		out = append(out, memOp{instr: i, name: name, read: read, size: size, occ: occ[key]})
		occ[key]++
	}
	return out
}

func hostMemOps(c *Candidate) []memOp {
	var out []memOp
	occ := map[string]int{}
	add := func(i int, name string, read bool, size int) {
		key := fmt.Sprintf("%s/%t", name, read)
		out = append(out, memOp{instr: i, name: name, read: read, size: size, occ: occ[key]})
		occ[key]++
	}
	for i, in := range c.Host {
		name := c.HostVars[i]
		switch in.Op {
		case x86.LEA:
			continue // address computation, not an access
		case x86.MOVZBL, x86.MOVSBL:
			if in.Src.Kind == x86.KMem {
				add(i, name, true, 1)
			}
		case x86.MOVB:
			if in.Src.Kind == x86.KMem {
				add(i, name, true, 1)
			}
			if in.Dst.Kind == x86.KMem {
				add(i, name, false, 1)
			}
		default:
			if in.Src.Kind == x86.KMem {
				add(i, name, true, 4)
			}
			if in.Dst.Kind == x86.KMem {
				add(i, name, false, 4)
			}
		}
	}
	return out
}

// pairMemOps checks name/count compatibility (§3.2 memory operands) and
// returns guest→host pairing indices.
func pairMemOps(g, h []memOp) (map[int]int, Bucket, bool) {
	type key struct {
		name string
		read bool
		occ  int
	}
	hIdx := map[key]int{}
	hNames := map[string]bool{}
	for i, m := range h {
		hIdx[key{m.name, m.read, m.occ}] = i
		hNames[m.name] = true
	}
	gNames := map[string]bool{}
	for _, m := range g {
		gNames[m.name] = true
	}
	for n := range gNames {
		if !hNames[n] {
			return nil, ParamName, false
		}
	}
	for n := range hNames {
		if !gNames[n] {
			return nil, ParamName, false
		}
	}
	if len(g) != len(h) {
		return nil, ParamNum, false
	}
	pairs := map[int]int{}
	used := map[int]bool{}
	for i, m := range g {
		j, ok := hIdx[key{m.name, m.read, m.occ}]
		if !ok || used[j] {
			return nil, ParamNum, false
		}
		pairs[i] = j
		used[j] = true
	}
	return pairs, Learned, true
}

// --- live-in analysis and initial register mapping (§3.2) ----------------

var guestRegSym = func() map[string]arm.Reg {
	m := map[string]arm.Reg{}
	for r := arm.Reg(0); r < arm.NumRegs; r++ {
		m[fmt.Sprintf("g_r%d", r)] = r
	}
	return m
}()

var hostRegSym = func() map[string]x86.Reg {
	m := map[string]x86.Reg{}
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		m[fmt.Sprintf("h_%s", r)] = r
	}
	return m
}()

func hostSymName(r x86.Reg) string { return fmt.Sprintf("h_%s", r) }
func guestSymName(r arm.Reg) string {
	return fmt.Sprintf("g_r%d", uint8(r))
}

// collectSyms gathers every symbol consumed by a symbolic run.
func collectSyms(exprs []*expr.Expr) map[string]int {
	set := map[string]int{}
	for _, e := range exprs {
		if e != nil {
			e.Syms(set)
		}
	}
	return set
}

// linearTerms decomposes a canonical address expression into coefficient →
// symbol-name terms plus a constant; complex terms are reported under
// coefficient with an opaque key and ignored for mapping extraction.
func linearTerms(e *expr.Expr) (terms map[uint64][]string, konst uint64) {
	terms = map[uint64][]string{}
	add := func(coeff uint64, sym string) { terms[coeff] = append(terms[coeff], sym) }
	var walkTerm func(a *expr.Expr)
	walkTerm = func(a *expr.Expr) {
		switch {
		case a.Kind == expr.KConst:
			konst += a.Val
		case a.Kind == expr.KSym:
			add(1, a.Name)
		case a.Kind == expr.KNode && a.Op == expr.OpMul && len(a.Args) == 2:
			if c, ok := a.Args[0].ConstVal(); ok && a.Args[1].Kind == expr.KSym {
				add(c, a.Args[1].Name)
				return
			}
			// complex product: ignored for extraction
		default:
			// complex term: ignored for extraction
		}
	}
	if e.Kind == expr.KNode && e.Op == expr.OpAdd {
		for _, a := range e.Args {
			walkTerm(a)
		}
	} else {
		walkTerm(e)
	}
	return terms, konst
}

// opSignature returns a bitmask of the operators a symbol feeds directly.
func opSignature(name string, exprs []*expr.Expr) uint64 {
	var sig uint64
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		if e == nil || e.Kind != expr.KNode {
			return
		}
		for _, a := range e.Args {
			if a.Kind == expr.KSym && a.Name == name {
				sig |= 1 << uint(e.Op)
			}
			walk(a)
		}
	}
	for _, e := range exprs {
		walk(e)
	}
	return sig
}

// permutations generates all orderings of xs (n! for small n).
func permutations(xs []x86.Reg) [][]x86.Reg {
	if len(xs) <= 1 {
		return [][]x86.Reg{append([]x86.Reg(nil), xs...)}
	}
	var out [][]x86.Reg
	for i := range xs {
		rest := make([]x86.Reg, 0, len(xs)-1)
		rest = append(rest, xs[:i]...)
		rest = append(rest, xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]x86.Reg{xs[i]}, p...))
		}
	}
	return out
}

// --- the pipeline --------------------------------------------------------

// candidateKey identifies a candidate for keyed fault injection: source
// name and line are properties of the candidate itself, so the same
// candidate faults no matter which worker processes it.
func candidateKey(c *Candidate) string { return fmt.Sprintf("%s:%d", c.Source, c.Line) }

// learnOneContained runs LearnOne under per-candidate panic containment: a
// panic anywhere in the §3 pipeline — a solver bug, a malformed candidate,
// or an injected fault — lands the candidate in the VerifyOther
// (crash/timeout) column instead of killing the whole learning run. Both
// the serial and the parallel paths go through it, so bucket accounting
// and the deterministic merge stay byte-identical at every Jobs value.
func (l *Learner) learnOneContained(c Candidate) (r *rules.Rule, b Bucket) {
	defer func() {
		if p := recover(); p != nil {
			r, b = nil, VerifyOther
		}
	}()
	if faultinject.FireKey(faultinject.LearnPanic, candidateKey(&c)) {
		panic(fmt.Sprintf("learn: injected candidate panic (%s)", candidateKey(&c)))
	}
	return l.LearnOne(c)
}

// LearnOne runs the full §3 pipeline on one candidate.
func (l *Learner) LearnOne(c Candidate) (*rules.Rule, Bucket) {
	t0 := time.Now()
	if b, ok := prepare(&c); !ok {
		l.prepDur += time.Since(t0)
		return nil, b
	}
	l.prepDur += time.Since(t0)
	t1 := time.Now()

	gMem := guestMemOps(&c)
	hMem := hostMemOps(&c)
	memPairs, b, ok := pairMemOps(gMem, hMem)
	if !ok {
		l.paramDur += time.Since(t1)
		return nil, b
	}

	// Pre-pass: independent symbolic execution to discover live-ins and
	// per-access address structure.
	gs := arm.NewSymState("g", nil)
	if err := gs.SymExec(c.Guest); err != nil {
		l.paramDur += time.Since(t1)
		return nil, VerifyOther
	}
	hs := x86.NewSymState("h", nil)
	if err := hs.SymExec(c.Host); err != nil {
		l.paramDur += time.Since(t1)
		return nil, VerifyOther
	}

	gExprs := gatherGuestExprs(gs)
	hExprs := gatherHostExprs(hs)
	gSyms := collectSyms(gExprs)
	hSyms := collectSyms(hExprs)

	// Initial flag values must not be consumed (no mapping exists for
	// cross-ISA flag inputs).
	for _, f := range []string{"g_n", "g_z", "g_c", "g_v"} {
		if _, ok := gSyms[f]; ok {
			l.paramDur += time.Since(t1)
			return nil, ParamFailG
		}
	}
	for _, f := range []string{"h_cf", "h_zf", "h_sf", "h_of"} {
		if _, ok := hSyms[f]; ok {
			l.paramDur += time.Since(t1)
			return nil, ParamFailG
		}
	}

	var gLive []arm.Reg
	for s := range gSyms {
		if r, ok := guestRegSym[s]; ok {
			gLive = append(gLive, r)
		}
	}
	var hLive []x86.Reg
	for s := range hSyms {
		if r, ok := hostRegSym[s]; ok {
			hLive = append(hLive, r)
		}
	}
	sort.Slice(gLive, func(i, j int) bool { return gLive[i] < gLive[j] })
	sort.Slice(hLive, func(i, j int) bool { return hLive[i] < hLive[j] })
	if len(gLive) != len(hLive) {
		l.paramDur += time.Since(t1)
		return nil, ParamFailG
	}

	// Mapping from normalized addresses of paired memory operands.
	base := map[arm.Reg]x86.Reg{}
	if fail := mapFromAddresses(gs, hs, gMem, hMem, memPairs, base); fail {
		l.paramDur += time.Since(t1)
		return nil, ParamFailG
	}

	// Remaining live-ins: operations-heuristic-scored permutations.
	mappedG := map[arm.Reg]bool{}
	mappedH := map[x86.Reg]bool{}
	for g, h := range base {
		mappedG[g] = true
		mappedH[h] = true
	}
	var gRem []arm.Reg
	for _, r := range gLive {
		if !mappedG[r] {
			gRem = append(gRem, r)
		}
	}
	var hRem []x86.Reg
	for _, r := range hLive {
		if !mappedH[r] {
			hRem = append(hRem, r)
		}
	}
	if len(gRem) != len(hRem) || len(gRem) > 6 {
		l.paramDur += time.Since(t1)
		return nil, ParamFailG
	}

	var candidates [][]x86.Reg
	if len(gRem) == 0 {
		candidates = [][]x86.Reg{nil}
	} else {
		perms := permutations(hRem)
		gSigs := make([]uint64, len(gRem))
		for i, r := range gRem {
			gSigs[i] = opSignature(guestSymName(r), gExprs)
		}
		hSigs := map[x86.Reg]uint64{}
		for _, r := range hRem {
			hSigs[r] = opSignature(hostSymName(r), hExprs)
		}
		score := func(p []x86.Reg) int {
			s := 0
			for i := range p {
				s += bits.OnesCount64(gSigs[i] & hSigs[p[i]])
			}
			return s
		}
		sort.SliceStable(perms, func(i, j int) bool { return score(perms[i]) > score(perms[j]) })
		if len(perms) > l.opts.MaxPermutations {
			perms = perms[:l.opts.MaxPermutations]
		}
		candidates = perms
	}

	l.paramDur += time.Since(t1)
	t2 := time.Now()
	defer func() { l.verifyDur += time.Since(t2) }()

	last := VerifyRg
	for _, perm := range candidates {
		mapping := map[arm.Reg]x86.Reg{}
		for g, h := range base {
			mapping[g] = h
		}
		for i, r := range gRem {
			mapping[r] = perm[i]
		}
		modes := []bool{true, false}
		if l.opts.DisableImmParams {
			modes = []bool{false}
		}
		for _, withImms := range modes {
			r, bucket := l.verify(&c, gMem, hMem, memPairs, mapping, withImms)
			if r != nil {
				return r, Learned
			}
			last = bucket
		}
	}
	return nil, last
}

func gatherGuestExprs(gs *arm.SymState) []*expr.Expr {
	var out []*expr.Expr
	for r := arm.Reg(0); r < arm.NumRegs; r++ {
		if gs.RegDefined[r] {
			out = append(out, gs.R[r])
		}
	}
	for _, rd := range gs.Reads {
		out = append(out, rd.Addr)
	}
	for _, wr := range gs.Writes {
		out = append(out, wr.Addr, wr.Val)
	}
	if gs.BranchCond != nil {
		out = append(out, gs.BranchCond)
	}
	for i, def := range gs.FlagsDefined {
		if def {
			out = append(out, []*expr.Expr{gs.N, gs.Z, gs.C, gs.V}[i])
		}
	}
	return out
}

func gatherHostExprs(hs *x86.SymState) []*expr.Expr {
	var out []*expr.Expr
	for r := x86.Reg(0); r < x86.NumRegs; r++ {
		if hs.RegDefined[r] {
			out = append(out, hs.R[r])
		}
	}
	for _, rd := range hs.Reads {
		out = append(out, rd.Addr)
	}
	for _, wr := range hs.Writes {
		out = append(out, wr.Addr, wr.Val)
	}
	if hs.BranchCond != nil {
		out = append(out, hs.BranchCond)
	}
	for i, def := range hs.FlagsDefined {
		if def {
			out = append(out, []*expr.Expr{hs.CF, hs.ZF, hs.SF, hs.OF}[i])
		}
	}
	return out
}

// mapFromAddresses extracts register correspondences from the normalized
// linear forms of paired access addresses (§3.2 Figure 2). Returns true on
// an irreconcilable conflict.
func mapFromAddresses(gs *arm.SymState, hs *x86.SymState, gMem, hMem []memOp,
	pairs map[int]int, out map[arm.Reg]x86.Reg) bool {
	gAddrOf := accessAddrs(len(gMem))
	for i := range gMem {
		gAddrOf[i] = addrOfGuest(gs, gMem, i)
	}
	taken := map[x86.Reg]arm.Reg{}
	for gi, hi := range pairs {
		ga := gAddrOf[gi]
		ha := addrOfHost(hs, hMem, hi)
		if ga == nil || ha == nil {
			continue
		}
		gt, _ := linearTerms(ga)
		ht, _ := linearTerms(ha)
		for coeff, gsyms := range gt {
			hsyms := ht[coeff]
			if len(gsyms) != 1 || len(hsyms) != 1 {
				continue
			}
			gr, ok := guestRegSym[gsyms[0]]
			if !ok {
				continue
			}
			hr, ok := hostRegSym[hsyms[0]]
			if !ok {
				continue
			}
			if prev, bound := out[gr]; bound {
				if prev != hr {
					return true
				}
				continue
			}
			if prevG, bound := taken[hr]; bound && prevG != gr {
				return true
			}
			out[gr] = hr
			taken[hr] = gr
		}
	}
	return false
}

func accessAddrs(n int) []*expr.Expr { return make([]*expr.Expr, n) }

// addrOfGuest finds the pre-pass address expression of the i-th guest
// memory op (reads and writes interleave in instruction order).
func addrOfGuest(gs *arm.SymState, ops []memOp, i int) *expr.Expr {
	ri, wi := 0, 0
	for k := 0; k <= i; k++ {
		if k == i {
			if ops[k].read {
				return gs.Reads[ri].Addr
			}
			return gs.Writes[wi].Addr
		}
		if ops[k].read {
			ri++
		} else {
			wi++
		}
	}
	return nil
}

func addrOfHost(hs *x86.SymState, ops []memOp, i int) *expr.Expr {
	ri, wi := 0, 0
	for k := 0; k <= i; k++ {
		if k == i {
			if ops[k].read {
				return hs.Reads[ri].Addr
			}
			return hs.Writes[wi].Addr
		}
		if ops[k].read {
			ri++
		} else {
			wi++
		}
	}
	return nil
}
