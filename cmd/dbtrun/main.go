// Command dbtrun emulates one corpus benchmark under a chosen DBT backend
// and reports the modeled performance counters.
//
// Usage:
//
//	dbtrun -bench mcf [-backend qemu|rules|jit] [-rules rules.txt | -rules-url URL]
//	       [-rules-watch] [-workload test|ref] [-style llvm|gcc]
//	       [-tier interp|threaded|native|auto] [-faults SPEC] [-json]
//	       [-metrics-addr HOST:PORT] [-metrics-linger D]
//
// -tier selects the execution tier: interp pins every block to the switch
// interpreter, threaded pre-binds every block into operation thunks,
// native compiles every block to host machine code (amd64 hosts;
// elsewhere it degrades to threaded), and auto (the default) interprets
// cold blocks and promotes hot ones up the ladder. The modeled counters
// are identical under every tier — the report's "tiers" line (and the
// tier/tiers JSON fields) shows the per-tier dispatch split, how many
// native dispatches went native block to native block over a link
// without a round trip through the dispatch loop, and promotion counts.
//
// -rules-url fetches the rule snapshot from a ruleserve endpoint instead
// of a local file; the rules pass the same self-test gate as -rules, so a
// given rule set produces identical runs whichever way it arrived. The
// fetch carries a per-request deadline (-rules-timeout) and a bounded
// retry budget (-rules-retries); when the budget is exhausted the run
// does NOT fail: it falls back to the -rules-cache last-known-good
// snapshot if one exists, else starts with no rules (pure TCG fallback),
// warns on stderr either way, and exits 0 on a clean run.
// -rules-watch additionally subscribes to the server for the run's
// duration and hot-swaps the engine's rule set when the server's version
// moves (the engine keeps executing through the TCG fallback during the
// swap). The subscription retries with jittered exponential backoff
// behind a circuit breaker, rejects — and refuses to refetch — snapshot
// versions that fail hash verification or whole-set self-test, and keeps
// the engine on its last good rule set throughout.
//
// -rules-cache DIR persists every verified snapshot to DIR atomically and
// seeds cold starts from it, so a fleet of executors keeps running real
// rules through a distribution-server outage and converges (via the
// subscription's hot-swap) when it returns.
//
// -faults arms deterministic fault-injection points before the run, e.g.
// `-faults rule-binding-corrupt` (first hit), `-faults codegen-panic@5`
// (fifth hit), or `-faults interp-panic@every` (persistent fault — the run
// surfaces a FaultError once the per-entry retry budget is exhausted).
// The engine contains each fault, quarantines implicated rules, and
// reports the recovery counters.
//
// -metrics-addr starts the telemetry endpoint (Prometheus /metrics, JSON
// /snapshot.json and /trace.json, and net/http/pprof) and instruments the
// engine and rule store; the bound address is announced on stderr as
// "telemetry: listening on ADDR" (use ":0" for an ephemeral port).
// -metrics-linger keeps the endpoint alive that long after the run so an
// external scraper can read the final counters.
//
// -json replaces the text report with one dbt.RunStats JSON line on
// stdout (the canonical encoding the ci.sh smoke compares runs by).
//
// Exit status: 0 on success, 1 on usage or setup errors, 3 when the run
// aborts because the engine's per-entry fault-containment retry budget
// was exhausted (a persistent fault survived quarantine and pure-TCG
// retranslation).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"time"

	"dbtrules/codegen"
	"dbtrules/corpus"
	"dbtrules/dbt"
	"dbtrules/internal/faultinject"
	"dbtrules/internal/telemetry"
	"dbtrules/rules"
	"dbtrules/rules/dist"
)

func main() { os.Exit(run()) }

func run() int {
	benchName := flag.String("bench", "mcf", "benchmark name")
	backendName := flag.String("backend", "qemu", "qemu|rules|jit")
	rulesFile := flag.String("rules", "", "rule file (this or -rules-url, for -backend rules)")
	rulesURL := flag.String("rules-url", "", "fetch the rule snapshot from a ruleserve endpoint")
	rulesWatch := flag.Bool("rules-watch", false, "with -rules-url: subscribe and hot-swap rule updates during the run")
	rulesCache := flag.String("rules-cache", "", "with -rules-url: directory holding the last-known-good snapshot cache")
	rulesTimeout := flag.Duration("rules-timeout", dist.DefaultRequestTimeout, "per-request deadline for -rules-url fetches")
	rulesRetries := flag.Int("rules-retries", 3, "initial -rules-url fetch attempts before falling back")
	workload := flag.String("workload", "test", "test|ref")
	styleName := flag.String("style", "llvm", "guest compiler style (llvm|gcc)")
	tierName := flag.String("tier", "auto", "execution tier: interp|threaded|native|auto")
	faults := flag.String("faults", "", "arm fault-injection points: name[@N|@every][,...]")
	jsonOut := flag.Bool("json", false, "emit one dbt.RunStats JSON line instead of the text report")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /snapshot.json and pprof on this address (empty = telemetry off)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the telemetry endpoint up this long after the run")
	flag.Parse()

	if err := faultinject.Parse(*faults); err != nil {
		fmt.Fprintln(os.Stderr, "dbtrun:", err)
		return 1
	}
	tier, err := dbt.ParseTier(*tierName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtrun:", err)
		return 1
	}

	b, ok := corpus.ByName(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "dbtrun: unknown benchmark %q\n", *benchName)
		return 1
	}
	style := codegen.StyleLLVM
	if *styleName == "gcc" {
		style = codegen.StyleGCC
	}
	g, _, err := b.Compile(codegen.Options{Style: style, OptLevel: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtrun:", err)
		return 1
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.New(0)
		srv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtrun:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "telemetry: listening on %s\n", srv.Addr())
		defer srv.Close()
		if *metricsLinger > 0 {
			defer time.Sleep(*metricsLinger)
		}
	}

	var backend dbt.Backend
	var store *rules.Store
	var cache *dist.Cache
	if *rulesCache != "" {
		if *rulesURL == "" {
			fmt.Fprintln(os.Stderr, "dbtrun: -rules-cache requires -rules-url")
			return 1
		}
		var cerr error
		if cache, cerr = dist.NewCache(*rulesCache); cerr != nil {
			fmt.Fprintln(os.Stderr, "dbtrun:", cerr)
			return 1
		}
	}
	switch *backendName {
	case "qemu":
		backend = dbt.BackendQEMU
	case "jit":
		backend = dbt.BackendJIT
	case "rules":
		backend = dbt.BackendRules
		if (*rulesFile == "") == (*rulesURL == "") {
			fmt.Fprintln(os.Stderr, "dbtrun: -backend rules needs exactly one of -rules FILE or -rules-url URL")
			return 1
		}
		var list []*rules.Rule
		if *rulesFile != "" {
			f, err := os.Open(*rulesFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dbtrun:", err)
				return 1
			}
			list, err = rules.ReadRules(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "dbtrun:", err)
				return 1
			}
		} else {
			// The initial snapshot is fetched synchronously so the run
			// starts with the same rule set a -rules FILE run of that
			// snapshot would use; -rules-watch layers live updates on top.
			// An unreachable server degrades instead of failing: cached
			// snapshot if available, pure TCG otherwise.
			c := dist.NewClient(*rulesURL)
			c.SetTimeout(*rulesTimeout)
			list = fetchSnapshot(c, cache, *rulesURL, *rulesRetries, *rulesWatch)
		}
		store = rules.NewStore()
		// Instrument before the engine freezes its first index snapshot, so
		// rules_freeze_total counts it.
		if reg != nil {
			store.SetTelemetry(reg)
		}
		for _, r := range list {
			// Rules from disk are self-tested before installation: a
			// corrupted rule file must not corrupt emulation.
			if err := r.SelfTest(8, 1); err != nil {
				fmt.Fprintf(os.Stderr, "dbtrun: rejecting rule: %v\n", err)
				continue
			}
			store.Add(r)
		}
	default:
		fmt.Fprintf(os.Stderr, "dbtrun: unknown backend %q\n", *backendName)
		return 1
	}

	n := b.TestN
	if *workload == "ref" {
		n = b.RefN
	}
	e := dbt.NewEngine(g, backend, store)
	e.Tier = tier
	if reg != nil {
		e.SetTelemetry(reg)
	}
	if *rulesURL != "" && *rulesWatch {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		wc := dist.NewClient(*rulesURL)
		wc.SetTimeout(*rulesTimeout)
		wc.EnableBreaker(0, 0)
		go func() {
			opts := &dist.SubscribeOptions{
				// Same defence as the file/initial-snapshot path, applied to
				// the whole snapshot: any rule failing self-test rejects the
				// snapshot and quarantines its version, so the engine keeps
				// its last good rule set instead of running a partial one.
				Verify: func(list []*rules.Rule) error {
					for _, r := range list {
						if err := r.SelfTest(8, 1); err != nil {
							return err
						}
					}
					return nil
				},
				Cache:     cache,
				Telemetry: reg,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format+"\n", args...)
				},
			}
			_ = dist.Subscribe(ctx, wc, opts,
				func(s *rules.Store, info dist.VersionInfo) {
					e.OfferRules(s)
					fmt.Fprintf(os.Stderr, "rules: hot-swap offered: version %d (%d rules)\n",
						info.Version, info.Count)
				})
		}()
	}
	ret, err := e.Run("bench", []uint32{uint32(n), 12345}, 4_000_000_000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtrun:", err)
		var fe *dbt.FaultError
		if errors.As(err, &fe) {
			// The per-entry containment budget was exhausted: report the
			// counters gathered up to the abort, then signal the distinct
			// exit status so harnesses can tell "persistent fault" from
			// usage errors.
			report(e, b.Name, backend, *workload, style, ret, *jsonOut, *faults)
			return 3
		}
		return 1
	}
	report(e, b.Name, backend, *workload, style, ret, *jsonOut, *faults)
	return 0
}

// fetchSnapshot fetches the initial rule snapshot with a bounded retry
// budget. When the budget is exhausted the run degrades instead of
// dying: the last-known-good cache if it holds a valid snapshot, else no
// rules at all (pure TCG fallback). With -rules-watch the subscription
// owns the cache and the reconvergence, so this only reports the outage.
func fetchSnapshot(c *dist.Client, cache *dist.Cache, url string, retries int, watch bool) []*rules.Rule {
	if retries < 1 {
		retries = 1
	}
	for attempt := 1; attempt <= retries; attempt++ {
		list, body, info, err := c.SnapshotRaw(context.Background())
		if err == nil {
			fmt.Fprintf(os.Stderr, "rules: snapshot version %d (%d rules) from %s\n",
				info.Version, len(list), url)
			if !watch && cache != nil {
				if serr := cache.Save(info, body); serr != nil {
					fmt.Fprintln(os.Stderr, "dbtrun:", serr)
				}
			}
			return list
		}
		if attempt == retries {
			fmt.Fprintf(os.Stderr, "dbtrun: rules fetch: %v (retry budget exhausted)\n", err)
			break
		}
		d := dist.Backoff(time.Second, 10*time.Second, attempt)
		fmt.Fprintf(os.Stderr, "dbtrun: rules fetch: %v (attempt %d/%d, next in %s)\n",
			err, attempt, retries, d.Round(time.Millisecond))
		time.Sleep(d)
	}
	if watch {
		fmt.Fprintf(os.Stderr, "dbtrun: warning: %s unreachable; the subscription will converge when it returns\n", url)
		return nil
	}
	if cache != nil {
		if list, info, err := cache.Load(); err == nil {
			fmt.Fprintf(os.Stderr, "dbtrun: warning: %s unreachable; using cached snapshot version %d (%d rules)\n",
				url, info.Version, len(list))
			return list
		} else if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "dbtrun:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "dbtrun: warning: %s unreachable and no cached snapshot; continuing with no rules (pure TCG fallback)\n", url)
	return nil
}

// report prints the run record: one canonical dbt.RunStats JSON line with
// -json, the human-readable text block otherwise.
func report(e *dbt.Engine, benchName string, backend dbt.Backend, workload string, style codegen.Style, ret uint32, jsonOut bool, faults string) {
	st := &e.Stats
	if jsonOut {
		tiers := e.TierStats
		rec := dbt.RunStats{
			Bench:         benchName,
			Backend:       backend.String(),
			Workload:      workload,
			Tier:          e.Tier.String(),
			Tiers:         &tiers,
			Ret:           int32(ret),
			StatsSnapshot: st.Snapshot(),
		}
		data, err := json.Marshal(&rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbtrun:", err)
			return
		}
		fmt.Printf("%s\n", data)
		return
	}
	fmt.Printf("benchmark      %s (%s workload, %s guests)\n", benchName, workload, style)
	fmt.Printf("backend        %s\n", backend)
	fmt.Printf("result         %d\n", int32(ret))
	fmt.Print(st.String())
	ts := &e.TierStats
	fmt.Printf("tiers          %s: %d interp + %d threaded + %d native dispatches (%d linked), %d+%d promotions, %d+%d demotions\n",
		e.Tier, ts.InterpDispatches, ts.ThreadedDispatches, ts.NativeDispatches, ts.NativeLinks,
		ts.Promotions, ts.NativePromotions, ts.Demotions, ts.NativeDemotions)
	if ts.NativeBailouts > 0 {
		fmt.Printf("native bails   %d\n", ts.NativeBailouts)
	}
	if backend == dbt.BackendRules {
		fmt.Printf("coverage       static %.1f%%  dynamic %.1f%%\n",
			100*float64(st.StaticCovered)/float64(st.StaticTotal),
			100*float64(st.DynCovered)/float64(st.DynTotal))
		fmt.Printf("rule hits      %v (by guest length)\n", st.RuleHitsByLen)
	}
	if faults != "" {
		for _, line := range strings.Split(strings.TrimRight(faultinject.Status(), "\n"), "\n") {
			fmt.Printf("injection      %s\n", line)
		}
	}
}
