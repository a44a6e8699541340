#!/bin/sh
# ci.sh — the single CI entrypoint. The GitHub workflow and local
# pre-commit run the exact same stages through this script, so "green in
# CI" and "green on my machine" cannot drift apart.
#
# Usage:
#   ./ci.sh check   # go vet + go build + go test over every package, and over the benchmark/ module
#   ./ci.sh race    # race detector over the concurrent packages
#   ./ci.sh fuzz    # fuzz-smoke: each native fuzz target for $FUZZTIME (30s)
#   ./ci.sh faults  # fault-injection matrix + quarantine/refreeze race gate
#   ./ci.sh bench   # bench guard: fig8 quick sweep + parallel-learn speedup gate
#   ./ci.sh tiers   # tiered execution: cross-tier golden differential + tier speedup and rules<=qemu native gates
#   ./ci.sh telemetry # disarmed-overhead gate + live /metrics endpoint smoke
#   ./ci.sh dist    # rule-distribution: contention gate + ruleserve/dbtrun smoke
#   ./ci.sh chaos   # network fault matrix + chaos differential gate + cache-fallback smoke
#   ./ci.sh mine    # continuous mining: unit + dedup fuzz + differential gate + flywheel smoke
#   ./ci.sh all     # everything above (fuzz shortened to 5s), for pre-commit
set -eu

stage="${1:-all}"
fuzztime="${FUZZTIME:-30s}"
bench_out="${BENCH_OUT:-${TMPDIR:-/tmp}/dbtrules-bench.json}"

run_check() {
	go vet ./...
	go build ./...
	go test ./...
	# benchmark/ is a module of its own, so the root ./... skips it: build
	# and test it here, or a public-API deletion in rules/ or dbt/ breaks
	# the repository benchmark while tier-1 stays green. (-o /dev/null: a
	# lone main package would otherwise drop its binary in the directory.)
	(cd benchmark && go vet ./... && go build -o /dev/null ./... && go test ./...)
}

run_race() {
	# Gates the concurrent code: the learn worker pool, the thread-safe
	# (sharded) rule store and its distribution service, the DBT engine
	# that consumes the store, and the internal telemetry/fault plumbing.
	go test -race ./learn/... ./rules/... ./dbt/... ./internal/...
}

run_fuzz() {
	# Each native fuzz target gets a bounded smoke run; failures reproduce
	# with the seed corpus plus whatever the run discovers.
	go test ./codegen -run '^$' -fuzz '^FuzzDifferentialCompile$' -fuzztime "$fuzztime"
	go test ./dbt -run '^$' -fuzz '^FuzzBackendsAgree$' -fuzztime "$fuzztime"
	go test ./dbt -run '^$' -fuzz '^FuzzEngineRecovers$' -fuzztime "$fuzztime"
	go test ./dbt -run '^$' -fuzz '^FuzzThreadedMatchesStep$' -fuzztime "$fuzztime"
	go test ./dbt -run '^$' -fuzz '^FuzzNativeMatchesStep$' -fuzztime "$fuzztime"
	go test ./x86/native -run '^$' -fuzz '^FuzzNativeEmit$' -fuzztime "$fuzztime"
	go test ./rules -run '^$' -fuzz '^FuzzIndexMatchesStore$' -fuzztime "$fuzztime"
	go test ./rules -run '^$' -fuzz '^FuzzShardedStoreMatchesSingle$' -fuzztime "$fuzztime"
	go test ./mine -run '^$' -fuzz '^FuzzMineCandidateKey$' -fuzztime "$fuzztime"
	go test ./x86 -run '^$' -fuzz '^FuzzEncodeDecodeRoundTrip$' -fuzztime "$fuzztime"
	go test ./x86 -run '^$' -fuzz '^FuzzEncodedLenDiff$' -fuzztime "$fuzztime"
}

run_faults() {
	# Differential recovery gate: every registered engine injection point is
	# fired once and the run must finish with the interpreter's exact result
	# and guest-instruction count, the faulting rule quarantined, and the
	# next Freeze() excluding it.
	go test ./dbt -count=1 -v \
		-run '^(TestFaultInjectionMatrix|TestExecFaultQuarantinesRuleCoveredTB|TestPersistentFaultSurfaces|TestEngineInvalidate|TestStaleGenerationBackstop|TestInvalidateRangeClamps)$'
	# Learner containment: an injected per-candidate panic lands in the
	# crash column and merges stay byte-identical at every -jobs value.
	go test ./learn -count=1 -run '^(TestCandidatePanicContained|TestSolverMaybeInjection)$'
	# Quarantine/refreeze under the race detector: writers quarantining
	# against readers freezing snapshots, as a faulting engine does against
	# concurrent translation threads.
	go test -race ./rules -count=1 -run '^TestStoreConcurrent'
	go test -race ./dbt -count=1 -run '^(TestFaultInjectionMatrix|TestExecFaultQuarantinesRuleCoveredTB|TestOfferRulesQuarantineRace)$'
}

run_bench() {
	# The fig8 quick sweep must complete without panic inside the timeout,
	# parallel learning must hit its speedup gate (auto-skipped below 4
	# CPUs), the frozen rule index must beat the locked store by its gate,
	# and the simulated-cycle model must match the pinned golden stats.
	go test ./bench -count=1 -timeout 15m -v \
		-run '^(TestFig8Quick|TestParallelLearnSpeedup|TestLongestMatchSpeedup|TestStatsGolden)$'
	# Machine-readable perf trajectory: the fast-path microbenchmarks, the
	# learn benchmarks, and the sharded-store contention/refreeze
	# benchmarks, as benchstat-convertible JSON in $bench_out.
	bench_txt="$(go test ./bench -run '^$' -count=1 -timeout 15m \
		-bench '^(BenchmarkLongestMatch|BenchmarkDispatch|BenchmarkDispatchTelemetry|BenchmarkLearnSerial|BenchmarkLearnParallel|BenchmarkStoreAddParallel|BenchmarkStoreAddAll|BenchmarkFreezeSharded)$')"
	printf '%s\n' "$bench_txt"
	printf '%s\n' "$bench_txt" | go run ./cmd/benchjson > "$bench_out"
	echo "ci.sh: wrote $bench_out"
}

run_tiers() {
	# Tiered-execution gates. Correctness: the thunk compiler and the
	# native emitter must be step-for-step identical to the switch
	# interpreter (x86 unit + dbt differentials — the native tests
	# auto-skip on non-amd64 hosts, where the tier degrades to threaded),
	# and every corpus program must produce a byte-identical StatsSnapshot
	# whichever tier runs it — the faster tiers are wall-clock only.
	go test ./x86 -count=1 -run '^(TestThunks|TestBuildThunks|TestRunThunks)'
	go test ./x86/native -count=1 -run '^(TestNative|TestFlagsLiveAfter|TestFuzzSeeds)'
	go test ./dbt -count=1 -v \
		-run '^(TestTiersAgreeFixed|TestTierLifecycle|TestThreeTierLifecycle|TestParseTier)$'
	go test ./bench -count=1 -timeout 10m -v -run '^TestTierGoldenDifferential$'
	# Perf: a warm run under the threaded tier must beat the switch
	# interpreter by >= 15% wall-clock, the native tier must beat
	# threaded by >= 30% where the back end exists, and in the native
	# tier the rule translation must run no slower than the TCG one
	# (auto-skip below 4 CPUs; the native gates also skip on non-amd64
	# hosts).
	go test ./bench -count=1 -timeout 10m -v \
		-run '^(TestDispatchTierSpeedup|TestRulesNativeBeatsQemuNative)$'
}

# fetch URL to stdout, with whichever http client the machine has.
fetch_url() {
	if command -v curl >/dev/null 2>&1; then
		curl -fsS "$1"
	else
		wget -qO- "$1"
	fi
}

# wait_for_line FILE PATTERN [TRIES]: poll (0.1s apart) until a line of
# FILE matches the grep PATTERN; fails after TRIES polls (default 600).
wait_for_line() {
	tries="${3:-600}"
	i=0
	while [ "$i" -lt "$tries" ]; do
		if grep -q "$2" "$1" 2>/dev/null; then
			return 0
		fi
		i=$((i + 1))
		sleep 0.1
	done
	return 1
}

# wait_tel_addr STDERR_FILE: poll for the "telemetry: listening on ADDR"
# announcement and print the bound address.
wait_tel_addr() {
	wait_for_line "$1" '^telemetry: listening on ' 100 || return 1
	sed -n 's/^telemetry: listening on //p' "$1"
}

# json_field FILE FIELD: extract a numeric field from a one-line JSON
# record (the dbt.RunStats encoding dbtrun -json emits).
json_field() {
	sed -n "s/.*\"$2\":\\(-\\{0,1\\}[0-9][0-9]*\\).*/\\1/p" "$1"
}

run_telemetry() {
	# The subsystem's two contracts, as tests: armed telemetry observes the
	# engine without perturbing the deterministic cycle model, and an
	# attached-but-disarmed registry costs within 5% of no registry at all
	# on the dispatch hot loop.
	go test ./internal/telemetry -count=1
	go test ./dbt -count=1 -run '^TestTelemetry'
	go test ./bench -count=1 -v -timeout 10m -run '^TestTelemetryDisarmedOverhead$'

	# Endpoint smoke against live processes: rulelearn must serve nonzero
	# per-phase learner timings, then dbtrun (rules backend, on the rules
	# that learning just wrote) must serve nonzero dbt_dispatch_total and
	# rules_freeze_total. Both bind an ephemeral port and linger after the
	# work so the scrape cannot race process exit.
	tmpdir="$(mktemp -d)"
	go build -o "$tmpdir/rulelearn" ./cmd/rulelearn
	go build -o "$tmpdir/dbtrun" ./cmd/dbtrun

	"$tmpdir/rulelearn" -out "$tmpdir/rules.txt" -metrics-addr 127.0.0.1:0 \
		-metrics-linger 60s >"$tmpdir/rl.out" 2>"$tmpdir/rl.err" &
	rl_pid=$!
	addr="$(wait_tel_addr "$tmpdir/rl.err")" || {
		echo "ci.sh: rulelearn never announced its telemetry address" >&2
		exit 1
	}
	wait_for_line "$tmpdir/rl.out" '^wrote' || {
		echo "ci.sh: rulelearn never reported writing its rules" >&2
		exit 1
	}
	fetch_url "http://$addr/metrics" >"$tmpdir/rl.metrics"
	kill "$rl_pid" 2>/dev/null || true
	wait "$rl_pid" 2>/dev/null || true
	grep -Eq '^learn_phase_ns_total\{phase="verify",worker="0"\} [0-9]*[1-9][0-9]*$' "$tmpdir/rl.metrics" || {
		echo "ci.sh: rulelearn /metrics lacks nonzero verify-phase timing" >&2
		exit 1
	}
	grep -Eq '^rules_add_total [0-9]*[1-9][0-9]*$' "$tmpdir/rl.metrics" || {
		echo "ci.sh: rulelearn /metrics lacks nonzero rules_add_total" >&2
		exit 1
	}

	"$tmpdir/dbtrun" -bench mcf -backend rules -rules "$tmpdir/rules.txt" \
		-metrics-addr 127.0.0.1:0 -metrics-linger 60s \
		>"$tmpdir/dr.out" 2>"$tmpdir/dr.err" &
	dr_pid=$!
	addr="$(wait_tel_addr "$tmpdir/dr.err")" || {
		echo "ci.sh: dbtrun never announced its telemetry address" >&2
		exit 1
	}
	wait_for_line "$tmpdir/dr.out" '^rule hits' || {
		echo "ci.sh: dbtrun never reported its rule hits" >&2
		exit 1
	}
	fetch_url "http://$addr/metrics" >"$tmpdir/dr.metrics"
	kill "$dr_pid" 2>/dev/null || true
	wait "$dr_pid" 2>/dev/null || true
	grep -Eq '^dbt_dispatch_total [0-9]*[1-9][0-9]*$' "$tmpdir/dr.metrics" || {
		echo "ci.sh: dbtrun /metrics lacks nonzero dbt_dispatch_total" >&2
		exit 1
	}
	grep -Eq '^rules_freeze_total [0-9]*[1-9][0-9]*$' "$tmpdir/dr.metrics" || {
		echo "ci.sh: dbtrun /metrics lacks nonzero rules_freeze_total" >&2
		exit 1
	}
	rm -rf "$tmpdir"
	echo "ci.sh: telemetry endpoint smoke OK"
}

run_dist() {
	# The distribution service's own unit tests (wire contract, snapshot
	# cache, long-poll, incremental quarantine subscription).
	go test ./rules/dist -count=1
	# Contention gate: at >= 4 writers on disjoint shards, the sharded
	# store must improve the lock-wait-inclusive rules_add_ns p99 by >= 2x
	# over a single-lock store (auto-skips below 4 CPUs, where writers
	# timeshare and scheduler noise drowns the lock-wait signal).
	go test ./bench -count=1 -v -run '^TestStoreContentionGate$'

	# End-to-end smoke: the same rule file served over the wire must
	# reproduce the local -rules run exactly — same result, same guest
	# instruction count.
	tmpdir="$(mktemp -d)"
	go build -o "$tmpdir/rulelearn" ./cmd/rulelearn
	go build -o "$tmpdir/dbtrun" ./cmd/dbtrun
	go build -o "$tmpdir/ruleserve" ./cmd/ruleserve

	"$tmpdir/rulelearn" -out "$tmpdir/rules.txt" >"$tmpdir/rl.out" 2>&1
	"$tmpdir/dbtrun" -bench mcf -backend rules -rules "$tmpdir/rules.txt" \
		-json >"$tmpdir/local.json"

	"$tmpdir/ruleserve" -rules "$tmpdir/rules.txt" -addr 127.0.0.1:0 \
		>"$tmpdir/rs.out" 2>"$tmpdir/rs.err" &
	rs_pid=$!
	wait_for_line "$tmpdir/rs.err" '^ruleserve: listening on ' 100 || {
		echo "ci.sh: ruleserve never announced its address" >&2
		exit 1
	}
	addr="$(sed -n 's/^ruleserve: listening on //p' "$tmpdir/rs.err")"
	"$tmpdir/dbtrun" -bench mcf -backend rules -rules-url "$addr" \
		-json >"$tmpdir/remote.json" 2>"$tmpdir/dr.err"
	kill "$rs_pid" 2>/dev/null || true
	wait "$rs_pid" 2>/dev/null || true

	for field in ret guest_instrs; do
		want="$(json_field "$tmpdir/local.json" "$field")"
		got="$(json_field "$tmpdir/remote.json" "$field")"
		if [ -z "$want" ] || [ "$want" != "$got" ]; then
			echo "ci.sh: dist smoke: $field diverges (local-rules '$want', via-server '$got')" >&2
			exit 1
		fi
	done
	rm -rf "$tmpdir"
	echo "ci.sh: rule-distribution smoke OK (ret and guest_instrs match the local run)"
}

run_chaos() {
	# The fault-injecting transport itself: every fault kind behaves as
	# specified and the schedule is deterministic.
	go test ./internal/faultinject -count=1 -run '^TestChaos'
	# The resilience layer under the fault matrix: per-request deadlines,
	# jittered backoff, the circuit breaker, per-version snapshot
	# quarantine, the last-known-good cache, and graceful server drain.
	# These tests also smoke the resilience telemetry counters
	# (dist_retry_total, dist_snapshot_reject_total,
	# dist_breaker_open_total) against a live registry.
	go test ./rules/dist -count=1 -v \
		-run '^(TestClientRequestDeadline|TestBackoffBounds|TestBreakerOpensAndRecovers|TestCacheRoundTrip|TestSubscribeRetryCounter|TestSubscribeQuarantinesCorruptSnapshot|TestSubscribeVerifyRejection|TestSubscribeColdStartFromCache|TestHealthzAndDrain)$'
	# The end-to-end differential gate: a subscribed engine through the
	# full network fault matrix stays correct during the chaos, never
	# adopts corrupted bytes, and converges to a rule set byte-identical
	# (full StatsSnapshot) to a local-rules run.
	go test ./bench -count=1 -timeout 10m -v -run '^TestChaosDifferentialGate$'

	# Cache-fallback smoke on the real binaries: a dbtrun pointed at a
	# live server populates its last-known-good cache; with the server
	# gone, the same command line must exit 0, warn, and reproduce the
	# served run exactly from the cache.
	tmpdir="$(mktemp -d)"
	go build -o "$tmpdir/rulelearn" ./cmd/rulelearn
	go build -o "$tmpdir/dbtrun" ./cmd/dbtrun
	go build -o "$tmpdir/ruleserve" ./cmd/ruleserve

	"$tmpdir/rulelearn" -out "$tmpdir/rules.txt" >"$tmpdir/rl.out" 2>&1
	"$tmpdir/ruleserve" -rules "$tmpdir/rules.txt" -addr 127.0.0.1:0 \
		>"$tmpdir/rs.out" 2>"$tmpdir/rs.err" &
	rs_pid=$!
	wait_for_line "$tmpdir/rs.err" '^ruleserve: listening on ' 100 || {
		echo "ci.sh: ruleserve never announced its address" >&2
		exit 1
	}
	addr="$(sed -n 's/^ruleserve: listening on //p' "$tmpdir/rs.err")"
	"$tmpdir/dbtrun" -bench mcf -backend rules -rules-url "$addr" \
		-rules-cache "$tmpdir/cache" -json >"$tmpdir/warm.json" 2>"$tmpdir/warm.err"
	kill "$rs_pid" 2>/dev/null || true
	wait "$rs_pid" 2>/dev/null || true

	if "$tmpdir/dbtrun" -bench mcf -backend rules -rules-url "$addr" \
		-rules-cache "$tmpdir/cache" -rules-retries 1 -rules-timeout 2s \
		-json >"$tmpdir/cold.json" 2>"$tmpdir/cold.err"; then :; else
		echo "ci.sh: chaos smoke: dbtrun with dead server + cache exited nonzero" >&2
		cat "$tmpdir/cold.err" >&2
		exit 1
	fi
	grep -q 'using cached snapshot' "$tmpdir/cold.err" || {
		echo "ci.sh: chaos smoke: no cached-snapshot warning on stderr" >&2
		exit 1
	}
	for field in ret guest_instrs dyn_covered; do
		want="$(json_field "$tmpdir/warm.json" "$field")"
		got="$(json_field "$tmpdir/cold.json" "$field")"
		if [ -z "$want" ] || [ "$want" != "$got" ]; then
			echo "ci.sh: chaos smoke: $field diverges (served '$want', cached '$got')" >&2
			exit 1
		fi
	done
	# With no cache either, the run still degrades to pure TCG, exit 0.
	if "$tmpdir/dbtrun" -bench mcf -backend rules -rules-url "$addr" \
		-rules-retries 1 -rules-timeout 2s \
		-json >"$tmpdir/tcg.json" 2>"$tmpdir/tcg.err"; then :; else
		echo "ci.sh: chaos smoke: dbtrun with dead server and no cache exited nonzero" >&2
		exit 1
	fi
	grep -q 'pure TCG fallback' "$tmpdir/tcg.err" || {
		echo "ci.sh: chaos smoke: no pure-TCG warning on stderr" >&2
		exit 1
	}
	rm -rf "$tmpdir"
	echo "ci.sh: chaos cache-fallback smoke OK (cached run matches served run, no-cache run degrades cleanly)"
}

run_mine() {
	# The mining subsystem's unit surface: proposal-source well-formedness,
	# dedup/budget discipline, eviction semantics, profile gap extraction,
	# the window-edge ExtractCombined contracts the superblock source leans
	# on, batched store admission, and hit-attribution purity.
	go test ./mine -count=1
	go test ./learn -count=1 -run '^TestExtractCombined'
	go test ./rules -count=1 -run '^TestAddAll'
	go test ./dbt -count=1 -run '^(TestRuleHitsStatsInvariance|TestBailShape)$'
	# The dedup guarantee under fuzz: the candidate key is injective over
	# mutated candidates and deterministic across processes (the counter
	# assertion lives in the fuzz body).
	go test ./mine -run '^$' -fuzz '^FuzzMineCandidateKey$' -fuzztime "$fuzztime"
	# The subsystem's acceptance gate: mining must raise dynamic rule
	# coverage on mcf without changing the observable execution, via rules
	# in the mined ID space.
	go test ./bench -count=1 -timeout 10m -v -run '^TestMineDifferentialGate$'

	# End-to-end flywheel smoke on the real binaries: rulelearn writes the
	# line-paired baseline, a dbtrun against it pins the pre-mining
	# numbers, then a ruleminer seeded from a ruleserve snapshot mines for
	# a few rounds and a `dbtrun -rules-watch` subscribed to the miner
	# must reproduce ret and guest_instrs exactly while strictly beating
	# the baseline's dyn_covered.
	tmpdir="$(mktemp -d)"
	go build -o "$tmpdir/rulelearn" ./cmd/rulelearn
	go build -o "$tmpdir/dbtrun" ./cmd/dbtrun
	go build -o "$tmpdir/ruleserve" ./cmd/ruleserve
	go build -o "$tmpdir/ruleminer" ./cmd/ruleminer

	"$tmpdir/rulelearn" -out "$tmpdir/rules.txt" >"$tmpdir/rl.out" 2>&1
	"$tmpdir/dbtrun" -bench mcf -backend rules -rules "$tmpdir/rules.txt" \
		-json >"$tmpdir/base.json"

	"$tmpdir/ruleserve" -rules "$tmpdir/rules.txt" -addr 127.0.0.1:0 \
		>"$tmpdir/rs.out" 2>"$tmpdir/rs.err" &
	rs_pid=$!
	wait_for_line "$tmpdir/rs.err" '^ruleserve: listening on ' 100 || {
		echo "ci.sh: ruleserve never announced its address" >&2
		exit 1
	}
	seed_addr="$(sed -n 's/^ruleserve: listening on //p' "$tmpdir/rs.err")"

	"$tmpdir/ruleminer" -bench mcf -rules-url "$seed_addr" -addr 127.0.0.1:0 \
		-rounds 4 >"$tmpdir/rm.out" 2>"$tmpdir/rm.err" &
	rm_pid=$!
	wait_for_line "$tmpdir/rm.err" '^ruleminer: listening on ' 100 || {
		echo "ci.sh: ruleminer never announced its address" >&2
		cat "$tmpdir/rm.err" >&2
		exit 1
	}
	mine_addr="$(sed -n 's/^ruleminer: listening on //p' "$tmpdir/rm.err")"
	# Let the flywheel finish all rounds so the subscribed run sees the
	# full mined store (mining keeps serving after "mining done").
	wait_for_line "$tmpdir/rm.err" '^ruleminer: mining done' 3000 || {
		echo "ci.sh: ruleminer never finished its rounds" >&2
		cat "$tmpdir/rm.err" >&2
		exit 1
	}
	"$tmpdir/dbtrun" -bench mcf -backend rules -rules-url "$mine_addr" \
		-rules-watch -json >"$tmpdir/mined.json" 2>"$tmpdir/dr.err"
	kill "$rm_pid" "$rs_pid" 2>/dev/null || true
	wait "$rm_pid" "$rs_pid" 2>/dev/null || true

	grep -q '[1-9][0-9]* added' "$tmpdir/rm.err" || {
		echo "ci.sh: mine smoke: no round ever added a mined rule" >&2
		cat "$tmpdir/rm.err" >&2
		exit 1
	}
	for field in ret guest_instrs; do
		want="$(json_field "$tmpdir/base.json" "$field")"
		got="$(json_field "$tmpdir/mined.json" "$field")"
		if [ -z "$want" ] || [ "$want" != "$got" ]; then
			echo "ci.sh: mine smoke: $field diverges (baseline '$want', mined '$got')" >&2
			exit 1
		fi
	done
	base_cov="$(json_field "$tmpdir/base.json" dyn_covered)"
	mined_cov="$(json_field "$tmpdir/mined.json" dyn_covered)"
	if [ -z "$base_cov" ] || [ -z "$mined_cov" ] || [ "$mined_cov" -le "$base_cov" ]; then
		echo "ci.sh: mine smoke: dyn_covered did not increase ($base_cov -> $mined_cov)" >&2
		exit 1
	fi
	rm -rf "$tmpdir"
	echo "ci.sh: mining smoke OK (ret/guest_instrs identical, dyn_covered $base_cov -> $mined_cov)"
}

case "$stage" in
check) run_check ;;
race) run_race ;;
fuzz) run_fuzz ;;
faults) run_faults ;;
bench) run_bench ;;
tiers) run_tiers ;;
telemetry) run_telemetry ;;
dist) run_dist ;;
chaos) run_chaos ;;
mine) run_mine ;;
all)
	run_check
	run_race
	fuzztime="${FUZZTIME:-5s}"
	run_fuzz
	run_faults
	run_bench
	run_tiers
	run_telemetry
	run_dist
	run_chaos
	run_mine
	;;
*)
	echo "ci.sh: unknown stage '$stage' (want check|race|fuzz|bench|tiers|all|faults|telemetry|dist|chaos|mine)" >&2
	exit 2
	;;
esac
