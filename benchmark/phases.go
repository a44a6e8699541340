package main

import (
	"fmt"
	"runtime"
	"time"

	"dbtrules/dbt"
	"dbtrules/internal/telemetry"
	"dbtrules/learn"
	"dbtrules/rules"
)

// backends are the two translation strategies every DBT phase compares.
var backends = []dbt.Backend{dbt.BackendRules, dbt.BackendQEMU}

// storeFor returns the rule store an engine of the backend runs under.
func storeFor(g *guest, b dbt.Backend) *rules.Store {
	if b == dbt.BackendRules {
		return g.loo
	}
	return nil
}

// pacer spends one phase's budget in several rounds, so that the phases
// of a run interleave: a stretch of seconds in which the machine is slow
// then touches a part of every metric's samples, which a median shrugs
// off, rather than all the samples of one metric.
type pacer struct {
	name   string
	budget time.Duration
	min    int // fewest passes over the whole run, however small the budget
	spent  time.Duration
	done   int
}

// round makes the passes of round r of n: passes continue while one more
// of average length still fits in the first r+1 n-ths of the budget, and
// until the same share of the minimum is reached.
func (p *pacer) round(r, n int, pass func()) {
	allowance := p.budget * time.Duration(r+1) / time.Duration(n)
	floor := (p.min*(r+1) + n - 1) / n
	for p.done < floor || (p.done > 0 && p.spent+p.spent/time.Duration(p.done) <= allowance) {
		t0 := time.Now()
		pass()
		p.spent += time.Since(t0)
		p.done++
	}
}

// --- steady: warm Runs ---------------------------------------------------

// steadyEngine is one guest x backend engine kept warm across passes.
type steadyEngine struct {
	g       *guest
	backend dbt.Backend
	e       *dbt.Engine
	wallNS  []float64
	// Counter deltas of one warm Run (identical on every Run, since each
	// starts from the same memory image and a warm code cache).
	host, dispatches, chainHits uint64
}

type steadyPhase struct {
	tier    dbt.Tier
	engines []*steadyEngine
	o       *oracle
	op      int
}

// mips is the geomean over guests of guest instructions per warm Run
// divided by the median warm Run wall, in million instructions a second.
func (r *steadyPhase) mips(b dbt.Backend) (geo float64, rows []guestRow) {
	var vals []float64
	for _, se := range r.engines {
		if se.backend != b {
			continue
		}
		s := summarizeMS(se.wallNS)
		v := float64(se.g.steadyRef.Steps) / s.Median / 1e3
		vals = append(vals, v)
		rows = append(rows, guestRow{Guest: se.g.name, Value: v, Unit: "Minstr/s", Wall: &s})
	}
	return geomean(vals), rows
}

// newSteady prepares the warm-Run phase: one engine per guest and
// backend with the tier fixed by the workload, and one untimed warm-up
// Run each, which fills the code cache and climbs the tier ladder.
func newSteady(in *inputs, tier dbt.Tier, o *oracle) *steadyPhase {
	res := &steadyPhase{tier: tier, o: o}
	for _, g := range in.guests {
		for _, b := range backends {
			e := dbt.NewEngine(g.arm, b, storeFor(g, b))
			e.Tier = tier
			o.begin()
			ret, err := e.Run("bench", g.steadyArgs, maxGuestInstrs)
			o.checkRun(ret, err, e.Stats.GuestInstrs, g.steadyRef, "steady warm-up %s/%s", g.name, b)
			res.engines = append(res.engines, &steadyEngine{g: g, backend: b, e: e})
		}
	}
	return res
}

// pass times one warm Run of every engine.
func (res *steadyPhase) pass(tr *tracer) {
	o := res.o
	for _, se := range res.engines {
		e := se.e
		zeroGlobals(e, se.g.arm)
		before := e.Stats
		res.op++
		o.begin()
		id := tr.begin("steady.run", res.op)
		t0 := time.Now()
		ret, err := e.Run("bench", se.g.steadyArgs, maxGuestInstrs)
		wall := time.Since(t0)
		tr.end(id)
		se.wallNS = append(se.wallNS, float64(wall))
		se.host = e.Stats.HostInstrs - before.HostInstrs
		se.dispatches = e.Stats.DispatchCount - before.DispatchCount
		se.chainHits = e.Stats.ChainHits - before.ChainHits
		o.checkRun(ret, err, e.Stats.GuestInstrs-before.GuestInstrs, se.g.steadyRef,
			"steady %s/%s/%s", se.g.name, se.backend, res.tier)
	}
}

// --- cold: fresh engines -------------------------------------------------

// coldSeries is the fresh-engine Run walls of one guest x backend.
type coldSeries struct {
	g       *guest
	backend dbt.Backend
	wallNS  []float64
	// last is the engine of the final pass, kept for the layer replays
	// (its TBs are the blocks a cold run translates).
	last *dbt.Engine
	// Armed-telemetry readings of the final traced pass.
	translateNS, newEngineNS float64
	jitBytes                 uint64
}

type coldPhase struct {
	series []*coldSeries
	// sweepNS is, per large guest, the walls of calling every linked
	// function once on a fresh rules engine.
	sweepNS map[string][]float64
	// want holds, per "guest/backend", the interp-tier StatsSnapshot of
	// the same Run, which the default ladder must reproduce byte for byte.
	want map[string]string
	o    *oracle
	op   int
	// passes counts the untraced passes: samples [0, passes) of every
	// series ran with no registry and no spans, the rest with both.
	passes int
	// coldRuns counts fresh-engine Runs; allocBytes is the heap the
	// untracedRuns of them (and their sweeps) allocated.
	coldRuns, untracedRuns int
	allocBytes             uint64

	// Set by armTelemetry for the traced passes.
	reg       *telemetry.Registry
	translate *telemetry.Histogram
	jitBytes  *telemetry.Gauge
}

// geoMS is the geomean over guests of the median fresh-engine Run wall
// in ms, over the untraced samples or over the traced ones.
func (r *coldPhase) geoMS(b dbt.Backend, traced bool) (geo float64, rows []guestRow) {
	var vals []float64
	for _, cs := range r.series {
		if cs.backend != b {
			continue
		}
		w := cs.wallNS[:r.passes]
		if traced {
			w = cs.wallNS[r.passes:]
		}
		s := summarizeMS(w)
		vals = append(vals, s.Median)
		rows = append(rows, guestRow{Guest: cs.g.name, Value: s.Median, Unit: "ms", Wall: &s})
	}
	return geomean(vals), rows
}

func (r *coldPhase) sweepMS() (geo float64, rows []guestRow) {
	var vals []float64
	for _, cs := range r.series {
		w, ok := r.sweepNS[cs.g.name]
		if !ok || cs.backend != dbt.BackendRules {
			continue
		}
		s := summarizeMS(w)
		vals = append(vals, s.Median)
		rows = append(rows, guestRow{Guest: cs.g.name, Value: s.Median, Unit: "ms", Wall: &s})
	}
	return geomean(vals), rows
}

// newCold prepares the fresh-engine phase, which measures what a short
// run costs.
func newCold(in *inputs, want map[string]string, o *oracle) *coldPhase {
	res := &coldPhase{sweepNS: map[string][]float64{}, want: want, o: o}
	for _, g := range in.guests {
		for _, b := range backends {
			res.series = append(res.series, &coldSeries{g: g, backend: b})
		}
	}
	return res
}

// untraced makes round r of n of the budgeted passes, with no registry
// and no spans, and accounts the heap they allocate.
func (res *coldPhase) untraced(p *pacer, r, n int) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.round(r, n, func() { res.pass(nil) })
	runtime.ReadMemStats(&m1)
	res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	res.passes, res.untracedRuns = p.done, res.coldRuns
}

// traced makes n more passes with the telemetry registry attached and
// armed and with spans recorded in tr; against the untraced passes they
// give the tracing overhead.
func (res *coldPhase) traced(n int, tr *tracer) {
	res.reg = telemetry.New(0)
	res.reg.Arm()
	res.translate = res.reg.Histogram("dbt_translate_ns")
	res.jitBytes = res.reg.Gauge("dbt_native_code_bytes")
	for i := 0; i < n; i++ {
		res.pass(tr)
	}
	res.reg.Disarm()
}

// pass is, per guest, a fresh engine running the test input once under
// each backend, and for the large guests a fresh rules engine calling
// every linked function once.
func (res *coldPhase) pass(tr *tracer) {
	o, reg := res.o, res.reg
	for _, cs := range res.series {
		g := cs.g
		res.op++
		o.begin()
		id := tr.begin("cold.run", res.op)
		var trBefore uint64
		if reg != nil {
			trBefore = res.translate.SumNS()
			res.jitBytes.Set(0) // the gauge is shared; read this engine's buffer only
		}
		t0 := time.Now()
		nid := tr.begin("dbt.new_engine", res.op)
		e := dbt.NewEngine(g.arm, cs.backend, storeFor(g, cs.backend))
		var t1 time.Time
		if reg != nil {
			e.SetTelemetry(reg)
			t1 = time.Now()
		}
		tr.end(nid)
		rid := tr.begin("dbt.run", res.op)
		ret, err := e.Run("bench", g.testArgs, maxGuestInstrs)
		wall := time.Since(t0)
		tr.end(rid)
		tr.end(id)
		cs.wallNS = append(cs.wallNS, float64(wall))
		cs.last = e
		if reg != nil {
			cs.translateNS = float64(res.translate.SumNS() - trBefore)
			cs.newEngineNS = float64(t1.Sub(t0))
			cs.jitBytes = res.jitBytes.Load()
		}
		res.coldRuns++
		o.checkRun(ret, err, e.Stats.GuestInstrs, g.testRef, "cold %s/%s", g.name, cs.backend)
		if got, want := snapshotJSON(e.Stats.Snapshot()), res.want[g.name+"/"+cs.backend.String()]; got != want {
			o.failf("cold %s/%s: StatsSnapshot differs from the interp tier's:\n got  %s\n want %s", g.name, cs.backend, got, want)
		}
		if cs.backend != dbt.BackendRules || !largeGuests[g.name] {
			continue
		}
		res.op++
		o.begin()
		id = tr.begin("cold.sweep", res.op)
		t0 = time.Now()
		e = dbt.NewEngine(g.arm, dbt.BackendRules, g.loo)
		rets := make([]uint32, len(g.arm.Funcs))
		var firstErr error
		for i, f := range g.arm.Funcs {
			r, err := e.Run(f.Name, sweepArgs, maxGuestInstrs)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", f.Name, err)
			}
			rets[i] = r
		}
		wall = time.Since(t0)
		tr.end(id)
		res.sweepNS[g.name] = append(res.sweepNS[g.name], float64(wall))
		if firstErr != nil {
			o.failf("sweep %s: %v", g.name, firstErr)
		}
		for i, r := range rets {
			if r != g.sweepRef[i] {
				o.failf("sweep %s: %s returned %d, interpreter %d", g.name, g.arm.Funcs[i].Name, r, g.sweepRef[i])
			}
		}
	}
}

// --- learn: full-corpus learning passes ---------------------------------

type learnPhase struct {
	in        *inputs
	o         *oracle
	op        int
	wallNS    []float64
	stats     []learn.Stats
	rules     int
	parWallNS []float64
}

func newLearn(in *inputs, o *oracle) *learnPhase { return &learnPhase{in: in, o: o} }

// pass times one full-corpus learning pass at jobs workers. Every pass
// must reproduce the rule file the set-up pass produced; passes at more
// than one worker feed the one parallel layer metric only.
func (res *learnPhase) pass(jobs int, tr *tracer) {
	res.op++
	res.o.begin()
	id := tr.begin("learn.pass", res.op)
	t0 := time.Now()
	lists, st := learnCorpus(res.in.guests, jobs)
	wall := time.Since(t0)
	tr.end(id)
	hash, err := hashRules(lists)
	switch {
	case err != nil:
		res.o.failf("learn pass (jobs=%d): %v", jobs, err)
	case hash != res.in.ruleHash:
		res.o.failf("learn pass (jobs=%d): rule file hash %s, set-up pass %s", jobs, hash, res.in.ruleHash)
	}
	res.rules = 0
	for _, l := range lists {
		res.rules += len(l)
	}
	if jobs > 1 {
		res.parWallNS = append(res.parWallNS, float64(wall))
		return
	}
	res.wallNS = append(res.wallNS, float64(wall))
	res.stats = append(res.stats, st)
}
