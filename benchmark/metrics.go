package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"dbtrules/dbt"
	"dbtrules/learn"
)

// endToEnd assembles the nine end-to-end metrics and the per-guest rows
// behind every geomean. Every value is a median of timing samples (or a
// geomean of per-guest medians), never a mean.
func endToEnd(setupS float64, steady *steadyPhase, cold *coldPhase, learned *learnPhase, fleet *fleetPhase) ([]metric, []guestRow) {
	var rows []guestRow
	tag := func(name string, rs []guestRow) {
		for _, r := range rs {
			r.Metric = name
			rows = append(rows, r)
		}
	}
	rulesMIPS, r1 := steady.mips(dbt.BackendRules)
	qemuMIPS, r2 := steady.mips(dbt.BackendQEMU)
	coldMS, r3 := cold.geoMS(dbt.BackendRules, false)
	qemuColdMS, r4 := cold.geoMS(dbt.BackendQEMU, false)
	sweepMS, r5 := cold.sweepMS()
	tag("rules_guest_mips", r1)
	tag("qemu_guest_mips", r2)
	tag("cold_run_ms", r3)
	tag("qemu_cold_run_ms", r4)
	tag("translate_sweep_ms", r5)

	learnS := summarizeMS(learned.wallNS)
	adoptS := summarizeMS(fleet.eventNS(func(e churnEvent) float64 { return e.adoptNS }, nil))
	mineS := summarizeMS(fleet.mineNS)
	return []metric{
		{Name: "setup_s", Unit: "s", Value: setupS},
		{Name: "rules_guest_mips", Unit: "Minstr/s", Value: rulesMIPS},
		{Name: "qemu_guest_mips", Unit: "Minstr/s", Value: qemuMIPS},
		{Name: "cold_run_ms", Unit: "ms", Value: coldMS},
		{Name: "qemu_cold_run_ms", Unit: "ms", Value: qemuColdMS},
		{Name: "translate_sweep_ms", Unit: "ms", Value: sweepMS},
		{Name: "learn_pass_ms", Unit: "ms", Value: learnS.Median, Samples: &learnS},
		{Name: "adopt_ms", Unit: "ms", Value: adoptS.Median, Samples: &adoptS},
		{Name: "mine_round_ms", Unit: "ms", Value: mineS.Median, Samples: &mineS},
	}, rows
}

// layerSources is everything the traced run measured.
type layerSources struct {
	steady  *steadyPhase
	cold    *coldPhase
	learned *learnPhase
	fleet   *fleetPhase
	sweep   *tierSweep
	replay  *replayResult

	addAllNS, addNS  float64
	compileMS, refMS float64
	coldBudget       budget
}

// layerMetrics assembles the per-layer metrics; the layer is the module
// name each metric starts with. Counters are exact and repeat from run
// to run; timings are medians.
func layerMetrics(in *inputs, s layerSources) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{Name: name, Unit: unit, Value: v}) }

	// dbt: execution, per tier and backend.
	for _, t := range pinnedTiers {
		for _, b := range backends {
			add(fmt.Sprintf("dbt.exec.ns_per_host_instr.%s.%s", t, b), "ns", s.sweep.nsPerHostInstr(in, b, t))
		}
	}
	var host, guestN, disp, chain [2]float64
	for _, se := range s.steady.engines {
		i := 0
		if se.backend == dbt.BackendQEMU {
			i = 1
		}
		host[i] += float64(se.host)
		guestN[i] += float64(se.g.steadyRef.Steps)
		disp[i] += float64(se.dispatches)
		chain[i] += float64(se.chainHits)
	}
	add("dbt.exec.host_per_guest_instr.rules", "ratio", ratio(host[0], guestN[0]))
	add("dbt.exec.host_per_guest_instr.qemu", "ratio", ratio(host[1], guestN[1]))
	add("dbt.speedup_wall.native", "ratio", s.sweep.speedupWall(in, dbt.TierNative))
	add("dbt.speedup_wall.threaded", "ratio", s.sweep.speedupWall(in, dbt.TierThreaded))
	add("dbt.speedup_model", "ratio", s.sweep.speedupModel(in))
	add("dbt.dispatch.count", "count", disp[0])
	add("dbt.dispatch.chain_hit_ratio", "ratio", ratio(chain[0], disp[0]))

	// dbt: the tier ladder and translation, over one cold pass of the
	// twelve rules-backend engines.
	var ts dbt.TierStats
	var st dbt.Stats
	var translate [2]float64
	var static [2]float64
	var coldWallNS float64
	var jit uint64
	for _, cs := range s.cold.series {
		e := cs.last
		if cs.backend == dbt.BackendQEMU {
			translate[1] += cs.translateNS
			static[1] += float64(e.Stats.StaticTotal)
			continue
		}
		translate[0] += cs.translateNS
		static[0] += float64(e.Stats.StaticTotal)
		coldWallNS += median(cs.wallNS[s.cold.passes:])
		jit += cs.jitBytes
		ts.InterpDispatches += e.TierStats.InterpDispatches
		ts.ThreadedDispatches += e.TierStats.ThreadedDispatches
		ts.NativeDispatches += e.TierStats.NativeDispatches
		ts.Promotions += e.TierStats.Promotions
		ts.NativePromotions += e.TierStats.NativePromotions
		ts.Demotions += e.TierStats.Demotions + e.TierStats.NativeDemotions
		ts.NativeBailouts += e.TierStats.NativeBailouts
		ts.NativeBuildFails += e.TierStats.NativeBuildFails
		st.TBCount += e.Stats.TBCount
		st.StaticCovered += e.Stats.StaticCovered
		st.StaticTotal += e.Stats.StaticTotal
		st.DynCovered += e.Stats.DynCovered
		st.DynTotal += e.Stats.DynTotal
		st.RuleApplyFails += e.Stats.RuleApplyFails
		st.GuestCodeBytes += e.Stats.GuestCodeBytes
		st.HostCodeBytes += e.Stats.HostCodeBytes
	}
	add("dbt.tier.promotions", "count", float64(ts.Promotions))
	add("dbt.tier.native_promotions", "count", float64(ts.NativePromotions))
	add("dbt.tier.demotions", "count", float64(ts.Demotions))
	add("dbt.tier.native_bailouts", "count", float64(ts.NativeBailouts))
	add("dbt.tier.native_build_fails", "count", float64(ts.NativeBuildFails))
	dispatches := float64(ts.InterpDispatches + ts.ThreadedDispatches + ts.NativeDispatches)
	add("dbt.tier.dispatch_share.interp", "ratio", ratio(float64(ts.InterpDispatches), dispatches))
	add("dbt.tier.dispatch_share.threaded", "ratio", ratio(float64(ts.ThreadedDispatches), dispatches))
	add("dbt.tier.dispatch_share.native", "ratio", ratio(float64(ts.NativeDispatches), dispatches))
	add("dbt.translate.ns_per_guest_instr.rules", "ns", ratio(translate[0], static[0]))
	add("dbt.translate.ns_per_guest_instr.qemu", "ns", ratio(translate[1], static[1]))
	add("dbt.translate.tbs", "count", float64(st.TBCount))
	add("dbt.translate.share_of_cold_run", "ratio", ratio(translate[0], coldWallNS))
	add("dbt.rule.static_coverage", "ratio", ratio(float64(st.StaticCovered), float64(st.StaticTotal)))
	add("dbt.rule.dyn_coverage", "ratio", ratio(float64(st.DynCovered), float64(st.DynTotal)))
	add("dbt.rule.apply_fails", "count", float64(st.RuleApplyFails))
	add("dbt.code.expansion", "ratio", st.Expansion())
	add("dbt.swap.first_run_ms", "ms", median(s.fleet.eventNS(func(e churnEvent) float64 { return e.firstRunNS }, nil))/1e6)
	add("dbt.jit.code_bytes", "bytes", float64(jit))

	// rules: lookup replayed on the translated blocks, the write side and
	// the wire format as the fleet phase called them.
	r := s.replay
	add("rules.index.match_ns_per_window", "ns", r.matchNS)
	add("rules.index.hit_ratio", "ratio", ratio(float64(r.hits), float64(r.windows)))
	add("rules.index.allocs_per_window", "count", r.allocsPerWindow)
	add("rules.rule.match_instantiate_ns_per_hit", "ns", r.instantiateNSPerHit)
	add("rules.store.addall_ns_per_rule", "ns", s.addAllNS)
	add("rules.store.add_ns_per_rule", "ns", s.addNS)
	isQ := func(e churnEvent) bool { return e.quarantine }
	isAdd := func(e churnEvent) bool { return !e.quarantine }
	fl := &s.fleet.layers
	add("rules.store.quarantine_us", "us", median(s.fleet.eventNS(func(e churnEvent) float64 { return e.mutateNS }, isQ))/1e3)
	add("rules.store.freeze_dirty_us", "us", median(fl.freezeDirtyNS)/1e3)
	add("rules.store.freeze_cached_ns", "ns", median(fl.freezeCachedNS))
	add("rules.marshal.write_us_per_rule", "us", median(fl.writeNSPerRule)/1e3)
	add("rules.marshal.read_us_per_rule", "us", median(fl.readNSPerRule)/1e3)
	add("rules.selftest.us_per_rule", "us", median(fl.selftestNSPerRule)/1e3)

	// dist: per episode of churnEvents events.
	episodes := float64(s.fleet.episodes)
	deliver := func(e churnEvent) float64 { return e.deliverNS }
	add("dist.publish_to_deliver_ms.add", "ms", median(s.fleet.eventNS(deliver, isAdd))/1e6)
	add("dist.publish_to_deliver_ms.quarantine", "ms", median(s.fleet.eventNS(deliver, isQ))/1e6)
	add("dist.snapshot.fetches", "count", ratio(float64(fl.fetches), episodes))
	add("dist.snapshot.bytes", "bytes", ratio(float64(fl.snapshotBytes), episodes))
	add("dist.incremental_applied", "count", ratio(float64(fl.incremental), episodes))
	add("dist.retries", "count", float64(fl.retries))

	// x86: checker, thunk builder and native emitter replayed on TB.Host.
	add("x86.check.ns_per_host_instr", "ns", r.checkNS)
	add("x86.thunk.build_ns_per_host_instr", "ns", r.thunkNS)
	add("x86.native.compile_ns_per_host_instr", "ns", r.compileNS)
	add("x86.native.bytes_per_host_instr", "bytes", ratio(float64(r.nativeBytes), float64(r.hostInstrs)))
	add("x86.native.bail_stub_ratio", "ratio", ratio(float64(r.nativeBails), float64(r.hostInstrs)))

	// learn: the phase split learn.Stats exports, per serial pass.
	var prep, param, verify []float64
	for _, ls := range s.learned.stats {
		prep = append(prep, ms(ls.PrepTime))
		param = append(param, ms(ls.ParamTime))
		verify = append(verify, ms(ls.VerifyTime))
	}
	last := s.learned.stats[len(s.learned.stats)-1]
	passMS := median(s.learned.wallNS) / 1e6
	add("learn.prep_ms", "ms", median(prep))
	add("learn.param_ms", "ms", median(param))
	add("learn.verify_ms", "ms", median(verify))
	add("learn.verify_share", "ratio", ratio(median(verify), median(prep)+median(param)+median(verify)))
	add("learn.us_per_candidate", "us", ratio(passMS*1e3, float64(last.Candidates)))
	add("learn.candidates", "count", float64(last.Candidates))
	add("learn.rules", "count", float64(s.learned.rules))
	add("learn.yield", "ratio", ratio(float64(s.learned.rules), float64(last.Candidates)))
	add("learn.verify_other", "count", float64(last.Counts[learn.VerifyOther]))
	add("learn.par_speedup", "ratio", ratio(median(s.learned.wallNS), median(s.learned.parWallNS)))

	// mine: one repetition of mineRounds rounds.
	add("mine.profile_ms", "ms", median(fl.mineProfileNS)/1e6)
	add("mine.round_only_ms", "ms", median(fl.mineRoundNS)/1e6)
	add("mine.proposed", "count", float64(fl.proposed))
	add("mine.submitted", "count", float64(fl.submitted))
	add("mine.verified", "count", float64(fl.verified))
	add("mine.added", "count", float64(fl.added))
	add("mine.dedup_refused", "count", float64(fl.dedupRefused))
	add("mine.verify_yield", "ratio", ratio(float64(fl.verified), float64(fl.submitted)))
	add("mine.coverage_gain", "ratio", ratio(float64(fl.dynCoveredAfter), float64(fl.dynCoveredBefore))-1)

	add("codegen.compile_ms", "ms", s.compileMS)
	add("prog.reference_ms", "ms", s.refMS)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	add("proc.peak_rss_mb", "MB", peakRSSMB())
	add("proc.alloc_mb_per_cold_run", "MB", ratio(float64(s.cold.allocBytes)/1e6, float64(s.cold.untracedRuns)))
	add("proc.gc_cycles", "count", float64(mem.NumGC))

	untraced, _ := s.cold.geoMS(dbt.BackendRules, false)
	tracedMS, _ := s.cold.geoMS(dbt.BackendRules, true)
	add("trace.overhead_pct", "%", 100*(ratio(tracedMS, untraced)-1))
	add("trace.coverage_pct", "%", s.coldBudget.CoveragePct)
	return out
}

// coldBudgetOf composes the layer budget of a cold rules-backend Run from
// what can be seen from outside: the NewEngine span, the engine's own
// armed translate histogram, the replayed lower layers, and execution
// estimated from the per-tier dispatch split and the sweep's per-tier
// cost of a host instruction. Values are means over the twelve guests;
// what the parts do not account for is listed as unattributed, and
// CoveragePct is the share they do account for.
func coldBudgetOf(cold *coldPhase, sweep *tierSweep, replay *replayResult) budget {
	parts := map[string]float64{}
	var total float64
	n := 0
	for _, cs := range cold.series {
		if cs.backend != dbt.BackendRules {
			continue
		}
		g, e := cs.g, cs.last
		n++
		total += median(cs.wallNS[cold.passes:])
		parts["dbt.new_engine"] += cs.newEngineNS
		match, inst, check := replay.matchNSByGuest[g.name], replay.instNSByGuest[g.name], replay.checkNSByGuest[g.name]
		parts["rules.index.match"] += match
		parts["rules.rule.match_instantiate"] += inst
		parts["x86.check"] += check
		parts["dbt.translate.other"] += cs.translateNS - match - inst - check
		parts["x86.thunk.build"] += replay.thunkHotNSByGuest[g.name]
		parts["x86.native.compile"] += replay.compileHotNSByGuest[g.name]
		ts := e.TierStats
		all := float64(ts.InterpDispatches + ts.ThreadedDispatches + ts.NativeDispatches)
		for tier, d := range map[dbt.Tier]uint64{
			dbt.TierInterp: ts.InterpDispatches, dbt.TierThreaded: ts.ThreadedDispatches, dbt.TierNative: ts.NativeDispatches,
		} {
			c := sweep.cells[cellKey(g, dbt.BackendRules, tier)]
			perInstr := ratio(c.warmNS, float64(c.hostPerRun))
			parts["dbt.exec."+tier.String()] += float64(e.Stats.HostInstrs) * ratio(float64(d), all) * perInstr
		}
	}
	b := budget{Operation: "cold_run", Ops: n, MSPerOp: ratio(total, float64(n)) / 1e6}
	var accounted float64
	for name, ns := range parts {
		accounted += ns
		b.Parts = append(b.Parts, budgetPart{Layer: name, MS: ratio(ns, float64(n)) / 1e6, Share: ratio(ns, total)})
	}
	b.Parts = append(b.Parts, budgetPart{Layer: "unattributed", MS: ratio(total-accounted, float64(n)) / 1e6, Share: ratio(total-accounted, total)})
	sortParts(b.Parts)
	b.CoveragePct = 100 * ratio(accounted, total)
	return b
}

// fleetBudgetOf is the span tree under every fleet.adopt root, as self
// time per span name.
func fleetBudgetOf(spans []span) budget {
	parts, perOp, ops := layerBudget(spans, "fleet.adopt", "harness.other")
	b := budget{Operation: "adopt", Ops: ops, MSPerOp: perOp, Parts: parts}
	for _, p := range parts {
		if p.Layer != "harness.other" {
			b.CoveragePct += 100 * p.Share
		}
	}
	return b
}

// printRun writes one run's human-readable report.
func printRun(w io.Writer, r *runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %.0fs budget, %.1fs wall) ==\n", r.Workload, mode, r.Seed, r.Seconds, r.WallS)
	var ph []string
	for _, p := range r.Phases {
		ph = append(ph, fmt.Sprintf("%s %dx %.2fs", p.Phase, p.Passes, p.WallS))
	}
	fmt.Fprintf(w, "phases: %s\n", strings.Join(ph, ", "))
	fmt.Fprintf(w, "ops %d  failed_ops %d\n", r.Ops, r.FailedOps)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	title := "end-to-end"
	if r.Traced {
		title = "end-to-end (traced run: shown for reference, never gated)"
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range r.EndToEnd {
		printMetric(w, m)
	}
	if !r.Traced {
		fmt.Fprintln(w, "per guest:")
		for _, g := range r.PerGuest {
			fmt.Fprintf(w, "  %-20s %-11s %12.4f %-9s%s\n", g.Metric, g.Guest, g.Value, g.Unit, samplesText(g.Wall))
		}
		return
	}
	fmt.Fprintln(w, "per layer:")
	for _, m := range r.Layers {
		printMetric(w, m)
	}
	for _, b := range r.Budgets {
		fmt.Fprintf(w, "layer budget of one %s (%.4f ms, %d ops, %.1f%% attributed):\n", b.Operation, b.MSPerOp, b.Ops, b.CoveragePct)
		for _, p := range b.Parts {
			fmt.Fprintf(w, "  %-32s %10.4f ms %6.1f%%\n", p.Layer, p.MS, 100*p.Share)
		}
	}
}

func printMetric(w io.Writer, m metric) {
	fmt.Fprintf(w, "  %-44s %14.4f %-9s%s\n", m.Name, m.Value, m.Unit, samplesText(m.Samples))
}

// samplesText renders the sample count and, from 21 samples on, the tail
// percentile next to a median.
func samplesText(s *summary) string {
	switch {
	case s == nil:
		return ""
	case s.TailPct == 0:
		return fmt.Sprintf(" n=%d min %.4f max %.4f", s.N, s.Min, s.Max)
	default:
		return fmt.Sprintf(" n=%d p%d %.4f min %.4f max %.4f", s.N, s.TailPct, s.Tail, s.Min, s.Max)
	}
}
