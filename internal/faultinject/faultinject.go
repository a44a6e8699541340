// Package faultinject provides named, deterministic fault-injection points
// for the DBT engine and the rule learner. Production code calls Fire (or
// FireKey) at an instrumented site; tests arm points to make a specific
// site fault on a specific hit. The disarmed fast path is a single atomic
// load, so leaving the instrumentation compiled in costs nothing
// measurable on the translation or dispatch hot paths.
//
// Two trigger kinds exist, both deterministic:
//
//   - counted (Arm): the point fires exactly once, on its Nth Fire call.
//     Hit counting is per-point and process-global, so counted points suit
//     single-threaded consumers (the engine's translate/exec loop), where
//     hit order is a pure function of the workload.
//
//   - keyed (ArmKey): the point fires on every FireKey call whose key
//     equals the armed key. Keyed points suit concurrent consumers (the
//     parallel learner), where hit ORDER is scheduling-dependent but hit
//     KEYS are not — the same candidate faults no matter which worker
//     processes it or how many workers exist.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registered injection-point names.
const (
	// TranslateFail makes Engine.translate return an error (the paper's
	// "rule does not apply / translation failed" case) without a panic.
	TranslateFail = "translate-fail"
	// RuleBindingCorrupt panics inside rule application, after a rule has
	// been matched and bound — the "bad learned rule" containment case.
	RuleBindingCorrupt = "rule-binding-corrupt"
	// CodegenPanic panics in the TCG per-instruction translation path.
	CodegenPanic = "codegen-panic"
	// InterpPanic panics at the top of TB execution, before any guest
	// state has been mutated.
	InterpPanic = "interp-panic"
	// SolverMaybe forces one equivalence query to report Maybe (the
	// paper's timeout column) regardless of the real verdict.
	SolverMaybe = "solver-maybe"
	// LearnPanic panics a learning candidate (keyed by candidate, so the
	// parallel pool crashes the same candidate at every -jobs value).
	LearnPanic = "learn-panic"
)

// Points lists every registered injection-point name.
func Points() []string {
	return []string{TranslateFail, RuleBindingCorrupt, CodegenPanic,
		InterpPanic, SolverMaybe, LearnPanic}
}

// EnginePoints lists the points instrumented inside Engine.Run — the
// single-fault matrix the differential recovery gate iterates over.
func EnginePoints() []string {
	return []string{TranslateFail, RuleBindingCorrupt, CodegenPanic, InterpPanic}
}

type point struct {
	hits  uint64 // Fire/FireKey calls observed while armed
	at    uint64 // counted trigger: fire on the at-th hit (1-based), once
	every bool   // repeating trigger: fire on every hit
	key   string // keyed trigger: fire on every matching key
	fired uint64 // times the point actually fired
}

var (
	armed atomic.Bool // fast path: any point armed at all
	mu    sync.Mutex
	reg   = map[string]*point{}
)

func valid(name string) bool {
	for _, p := range Points() {
		if p == name {
			return true
		}
	}
	return false
}

// Enabled reports whether any injection point is armed. The disarmed cost
// of every Fire call is exactly this atomic load.
func Enabled() bool { return armed.Load() }

// Arm makes the named point fire exactly once, on its nth Fire call
// (1-based; n <= 1 means the next call). Re-arming resets the hit count.
func Arm(name string, n uint64) {
	if !valid(name) {
		panic(fmt.Sprintf("faultinject: unknown point %q", name))
	}
	if n < 1 {
		n = 1
	}
	mu.Lock()
	reg[name] = &point{at: n}
	mu.Unlock()
	armed.Store(true)
}

// ArmEvery makes the named point fire on every Fire call — the persistent-
// fault trigger (a one-shot can always be absorbed by a retry path).
func ArmEvery(name string) {
	if !valid(name) {
		panic(fmt.Sprintf("faultinject: unknown point %q", name))
	}
	mu.Lock()
	reg[name] = &point{every: true}
	mu.Unlock()
	armed.Store(true)
}

// ArmKey makes the named point fire on every FireKey call whose key equals
// key.
func ArmKey(name, key string) {
	if !valid(name) {
		panic(fmt.Sprintf("faultinject: unknown point %q", name))
	}
	mu.Lock()
	reg[name] = &point{key: key}
	mu.Unlock()
	armed.Store(true)
}

// Disarm removes the named point's trigger.
func Disarm(name string) {
	mu.Lock()
	delete(reg, name)
	empty := len(reg) == 0
	mu.Unlock()
	if empty {
		armed.Store(false)
	}
}

// Reset disarms every point and clears all counters.
func Reset() {
	mu.Lock()
	reg = map[string]*point{}
	mu.Unlock()
	armed.Store(false)
}

// Fire reports whether the named counted point should fault at this call
// site, and advances its hit counter. Counted points fire exactly once.
func Fire(name string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	p := reg[name]
	if p == nil || (p.at == 0 && !p.every) {
		return false
	}
	p.hits++
	if p.every {
		p.fired++
		return true
	}
	if p.hits != p.at {
		return false
	}
	p.fired++
	p.at = 0 // one-shot
	return true
}

// FireKey reports whether the named keyed point should fault for this key.
// Keyed points fire on every matching call, so firing is independent of
// scheduling order.
func FireKey(name, key string) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	p := reg[name]
	if p == nil || p.key == "" || p.key != key {
		if p != nil && p.key != "" {
			p.hits++
		}
		return false
	}
	p.hits++
	p.fired++
	return true
}

// Fired returns how many times the named point has actually faulted since
// it was last armed.
func Fired(name string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if p := reg[name]; p != nil {
		return p.fired
	}
	return 0
}

// Hits returns how many Fire/FireKey calls the named point has observed
// since it was last armed — a coverage probe for the instrumented sites.
func Hits(name string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if p := reg[name]; p != nil {
		return p.hits
	}
	return 0
}

// Parse arms points from a comma-separated spec, the `-faults` flag
// syntax: `name` (fire on the first hit), `name@N` (fire on the Nth hit),
// `name@every` (fire on every hit), or `name=key` (keyed trigger). An
// empty spec is a no-op.
func Parse(spec string) error {
	for _, fld := range strings.Split(spec, ",") {
		fld = strings.TrimSpace(fld)
		if fld == "" {
			continue
		}
		if name, key, ok := strings.Cut(fld, "="); ok {
			if !valid(name) {
				return fmt.Errorf("faultinject: unknown point %q", name)
			}
			ArmKey(name, key)
			continue
		}
		name, nth, hasNth := strings.Cut(fld, "@")
		if !valid(name) {
			return fmt.Errorf("faultinject: unknown point %q", name)
		}
		if nth == "every" {
			ArmEvery(name)
			continue
		}
		n := uint64(1)
		if hasNth {
			v, err := strconv.ParseUint(nth, 10, 64)
			if err != nil || v < 1 {
				return fmt.Errorf("faultinject: bad hit count in %q", fld)
			}
			n = v
		}
		Arm(name, n)
	}
	return nil
}

// Status summarizes the armed points as "name hits/fired" lines, in name
// order (diagnostics for `dbtrun -faults`).
func Status() string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		p := reg[n]
		fmt.Fprintf(&b, "%s hits=%d fired=%d\n", n, p.hits, p.fired)
	}
	return b.String()
}
