package main

import (
	"runtime"
	"time"

	"dbtrules/arm"
	"dbtrules/dbt"
	"dbtrules/rules"
	"dbtrules/x86"
	"dbtrules/x86/native"
)

// pinnedTiers are the three tiers the sweep pins; interp is the
// reference the other two (and the default ladder) must reproduce.
var pinnedTiers = []dbt.Tier{dbt.TierInterp, dbt.TierThreaded, dbt.TierNative}

// sweepCell is one guest x backend x tier reading of the tier sweep.
type sweepCell struct {
	warmNS     float64 // median warm Run wall
	hostPerRun uint64  // host instructions one warm Run executes
}

type tierSweep struct {
	// want is, per "guest/backend", the canonical StatsSnapshot of a
	// fresh engine's test Run on the interp tier.
	want  map[string]string
	snaps map[string]dbt.StatsSnapshot
	cells map[string]sweepCell // "guest/backend/tier"
}

func cellKey(g *guest, b dbt.Backend, t dbt.Tier) string {
	return g.name + "/" + b.String() + "/" + t.String()
}

// runTierSweep runs every guest's test input on a fresh engine pinned to
// each tier, under both backends. The StatsSnapshot must be
// byte-identical across the three tiers: the faster tiers are wall-clock
// tiers only. With warmRuns > 0 it also times that many warm Runs per
// engine, which gives the per-tier cost of one host instruction.
func runTierSweep(in *inputs, warmRuns int, o *oracle, tr *tracer) *tierSweep {
	res := &tierSweep{want: map[string]string{}, snaps: map[string]dbt.StatsSnapshot{}, cells: map[string]sweepCell{}}
	for _, g := range in.guests {
		for _, b := range backends {
			gb := g.name + "/" + b.String()
			for _, tier := range pinnedTiers {
				o.begin()
				id := tr.begin("sweep.cold_run", 0)
				e := dbt.NewEngine(g.arm, b, storeFor(g, b))
				e.Tier = tier
				ret, err := e.Run("bench", g.testArgs, maxGuestInstrs)
				tr.end(id)
				o.checkRun(ret, err, e.Stats.GuestInstrs, g.testRef, "tier sweep %s/%s", gb, tier)
				snap := e.Stats.Snapshot()
				got := snapshotJSON(snap)
				if tier == dbt.TierInterp {
					res.want[gb], res.snaps[gb] = got, snap
				} else if got != res.want[gb] {
					o.failf("tier sweep %s/%s: StatsSnapshot differs from the interp tier's:\n got  %s\n want %s", gb, tier, got, res.want[gb])
				}
				var cell sweepCell
				var walls []float64
				for i := 0; i < warmRuns; i++ {
					zeroGlobals(e, g.arm)
					before := e.Stats
					o.begin()
					id := tr.begin("sweep.warm_run", 0)
					t0 := time.Now()
					ret, err := e.Run("bench", g.testArgs, maxGuestInstrs)
					walls = append(walls, float64(time.Since(t0)))
					tr.end(id)
					cell.hostPerRun = e.Stats.HostInstrs - before.HostInstrs
					o.checkRun(ret, err, e.Stats.GuestInstrs-before.GuestInstrs, g.testRef, "tier sweep %s/%s warm", gb, tier)
				}
				cell.warmNS = median(walls)
				res.cells[cellKey(g, b, tier)] = cell
			}
		}
	}
	return res
}

// nsPerHostInstr is the geomean over guests of the median warm Run wall
// divided by the host instructions the Run executed.
func (s *tierSweep) nsPerHostInstr(in *inputs, b dbt.Backend, t dbt.Tier) float64 {
	var vals []float64
	for _, g := range in.guests {
		c := s.cells[cellKey(g, b, t)]
		if c.hostPerRun > 0 && c.warmNS > 0 {
			vals = append(vals, c.warmNS/float64(c.hostPerRun))
		}
	}
	return geomean(vals)
}

// speedupWall is the geomean over guests of qemu warm wall / rules warm
// wall at one tier.
func (s *tierSweep) speedupWall(in *inputs, t dbt.Tier) float64 {
	var vals []float64
	for _, g := range in.guests {
		r, q := s.cells[cellKey(g, dbt.BackendRules, t)], s.cells[cellKey(g, dbt.BackendQEMU, t)]
		if r.warmNS > 0 && q.warmNS > 0 {
			vals = append(vals, q.warmNS/r.warmNS)
		}
	}
	return geomean(vals)
}

// speedupModel is the same ratio in the deterministic cycle model.
func (s *tierSweep) speedupModel(in *inputs) float64 {
	var vals []float64
	for _, g := range in.guests {
		r, q := s.snaps[g.name+"/rules"], s.snaps[g.name+"/qemu"]
		if rc := r.ExecCycles + r.TransCycles; rc > 0 {
			vals = append(vals, float64(q.ExecCycles+q.TransCycles)/float64(rc))
		}
	}
	return geomean(vals)
}

// replayReps is how often each replay loop runs; the median is reported.
const replayReps = 5

// replayResult holds what the harness measures by calling the layers
// below dbt directly, on the blocks a cold run translated.
type replayResult struct {
	// rules.Index / rules.Rule, over every window position of every TB of
	// the twelve rules-backend engines.
	windows, hits       int
	matchNS             float64 // per window
	allocsPerWindow     float64
	instantiateNSPerHit float64
	// Per-guest totals in ns, for the cold budget.
	matchNSByGuest, instNSByGuest map[string]float64

	// x86.CheckCode / BuildThunks / native.Compile over every TB.Host of
	// both backends' engines.
	hostInstrs                             int
	checkNS, thunkNS, compileNS            float64 // per host instruction
	nativeBytes, nativeBails               int
	checkNSByGuest                         map[string]float64
	thunkHotNSByGuest, compileHotNSByGuest map[string]float64
}

// hostRegs stands in for the engine's register cache when a rule is
// instantiated outside it: parameter p gets the p-th allocatable host
// register (ESP/EBP are never handed out).
var hostRegs = []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESI, x86.EDI}

// timeReps runs fn replayReps times and returns the median wall in ns.
func timeReps(fn func()) float64 {
	var walls []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		fn()
		walls = append(walls, float64(time.Since(t0)))
	}
	return median(walls)
}

// runReplays calls the rule index, the host-code checker, the thunk
// builder and the native emitter directly on the blocks of the final
// cold pass's engines.
func runReplays(cold *coldPhase, tr *tracer) *replayResult {
	res := &replayResult{
		matchNSByGuest: map[string]float64{}, instNSByGuest: map[string]float64{},
		checkNSByGuest: map[string]float64{}, thunkHotNSByGuest: map[string]float64{}, compileHotNSByGuest: map[string]float64{},
	}
	type hit struct {
		r      *rules.Rule
		window []arm.Instr
	}
	var matchNS, instNS, checkNS, thunkNS, compileNS float64
	var mallocs uint64
	for _, cs := range cold.series {
		g, tbs := cs.g, cs.last.TBs()
		if cs.backend == dbt.BackendRules {
			ix := g.loo.Freeze()
			var hits []hit
			windows := 0
			sc := ix.NewBlockScanner(nil)
			scan := func(collect bool) {
				for _, tb := range tbs {
					block := g.arm.Code[tb.EntryGPC : tb.EntryGPC+tb.GuestLen]
					sc.Reset(block)
					for i := range block {
						r, _, l, ok := sc.LongestMatch(i)
						if !collect {
							continue
						}
						windows++
						if ok {
							hits = append(hits, hit{r, block[i : i+l]})
						}
					}
				}
			}
			scan(true)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			id := tr.begin("rules.index.match", 0)
			ns := timeReps(func() { scan(false) })
			tr.end(id)
			runtime.ReadMemStats(&m1)
			mallocs += (m1.Mallocs - m0.Mallocs) / replayReps
			matchNS += ns
			res.matchNSByGuest[g.name] = ns
			res.windows += windows
			res.hits += len(hits)

			id = tr.begin("rules.rule.match_instantiate", 0)
			ns = timeReps(func() {
				for _, h := range hits {
					b, ok := h.r.Match(h.window)
					if !ok {
						continue
					}
					// An instantiation error is the engine's cue to fall
					// back to TCG; the replay only pays for the attempt.
					_, _ = h.r.Instantiate(b, func(p int) (x86.Reg, error) {
						return hostRegs[p%len(hostRegs)], nil
					})
				}
			})
			tr.end(id)
			instNS += ns
			res.instNSByGuest[g.name] = ns
		}

		// The blocks the default ladder would have promoted, by the
		// public thresholds, are the ones whose build cost a cold run pays.
		var hot, hotNative [][]x86.Instr
		var hotCosts [][]uint64
		for _, tb := range tbs {
			res.hostInstrs += len(tb.Host)
			if tb.ExecCount >= dbt.DefaultPromoteThreshold {
				hot = append(hot, tb.Host)
			}
			if tb.ExecCount >= dbt.DefaultNativePromoteThreshold {
				hotNative = append(hotNative, tb.Host)
				hotCosts = append(hotCosts, tb.HostCosts)
			}
		}
		id := tr.begin("x86.check", 0)
		ns := timeReps(func() {
			for _, tb := range tbs {
				_ = x86.CheckCode(tb.Host) // already validated at translate time
			}
		})
		tr.end(id)
		checkNS += ns
		id = tr.begin("x86.thunk.build", 0)
		thunkNS += timeReps(func() {
			for _, tb := range tbs {
				_, _ = x86.BuildThunks(tb.Host) // cost only; the engine built the same thunks
			}
		})
		tr.end(id)
		hotThunk := timeReps(func() {
			for _, h := range hot {
				_, _ = x86.BuildThunks(h)
			}
		})
		var hotCompile float64
		if native.Supported() {
			id = tr.begin("x86.native.compile", 0)
			compileNS += timeReps(func() {
				for _, tb := range tbs {
					_, _ = native.Compile(tb.Host, tb.HostCosts) // cost only
				}
			})
			tr.end(id)
			for _, tb := range tbs {
				if code, err := native.Compile(tb.Host, tb.HostCosts); err == nil {
					res.nativeBytes += len(code.Text)
					res.nativeBails += code.Bails
				}
			}
			hotCompile = timeReps(func() {
				for i, h := range hotNative {
					_, _ = native.Compile(h, hotCosts[i])
				}
			})
		}
		if cs.backend == dbt.BackendRules {
			res.checkNSByGuest[g.name] = ns
			res.thunkHotNSByGuest[g.name] = hotThunk
			res.compileHotNSByGuest[g.name] = hotCompile
		}
	}
	res.matchNS = ratio(matchNS, float64(res.windows))
	res.allocsPerWindow = ratio(float64(mallocs), float64(res.windows))
	res.instantiateNSPerHit = ratio(instNS, float64(res.hits))
	res.checkNS = ratio(checkNS, float64(res.hostInstrs))
	res.thunkNS = ratio(thunkNS, float64(res.hostInstrs))
	res.compileNS = ratio(compileNS, float64(res.hostInstrs))
	return res
}

// storeReplay settles AddAll against sequential Add with reps samples
// each, on fresh stores and mcf's learned rules (the BenchmarkStoreAddAll
// recipe): ns per rule, median over the samples.
func storeReplay(list []*rules.Rule, reps int, tr *tracer) (addAllNS, addNS float64) {
	if len(list) == 0 {
		return 0, 0
	}
	var all, seq []float64
	n := float64(len(list))
	for i := 0; i < reps; i++ {
		s := rules.NewStore()
		id := tr.begin("rules.store.addall", 0)
		t0 := time.Now()
		s.AddAll(list)
		all = append(all, float64(time.Since(t0))/n)
		tr.end(id)

		s = rules.NewStore()
		id = tr.begin("rules.store.add", 0)
		t0 = time.Now()
		for _, r := range list {
			s.Add(r)
		}
		seq = append(seq, float64(time.Since(t0))/n)
		tr.end(id)
	}
	return median(all), median(seq)
}
