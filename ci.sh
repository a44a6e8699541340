#!/bin/sh
# ci.sh — the single CI entrypoint. The GitHub workflow and local
# pre-commit run the exact same stages through this script, so "green in
# CI" and "green on my machine" cannot drift apart. Every Go test and
# gate lives in `go test ./...`; the stages below only select what that
# command does not run: the race detector, the fuzzers, and the real
# binaries talking to each other.
#
# Usage:
#   ./ci.sh check   # go vet + go build + go test over every package, and over the benchmark/ module
#   ./ci.sh race    # race detector over the concurrent packages
#   ./ci.sh fuzz    # fuzz-smoke: each native fuzz target for $FUZZTIME (30s)
#   ./ci.sh smoke   # rulelearn, dbtrun, ruleserve, ruleminer end to end: telemetry, distribution, cache fallback, mining
#   ./ci.sh all     # everything above (fuzz shortened to 5s), for pre-commit
#
# Performance is not judged here: see "Comparing two commits" in
# README.md (benchmark/run.sh + cmd/benchcmp).
set -eu

stage="${1:-all}"
fuzztime="${FUZZTIME:-30s}"

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
	# that consumes the store (fault matrix and quarantine/refreeze races
	# included), and the internal telemetry/fault plumbing.
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
	# The miner's dedup guarantee: the candidate key is injective over
	# mutated candidates and deterministic across processes.
	go test ./mine -run '^$' -fuzz '^FuzzMineCandidateKey$' -fuzztime "$fuzztime"
	go test ./x86 -run '^$' -fuzz '^FuzzEncodeDecodeRoundTrip$' -fuzztime "$fuzztime"
	go test ./x86 -run '^$' -fuzz '^FuzzEncodedLenDiff$' -fuzztime "$fuzztime"
}

fail() {
	echo "ci.sh: smoke: $*" >&2
	exit 1
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

# wait_addr STDERR_FILE WHO: poll for the "WHO: listening on ADDR"
# announcement every binary makes once bound, and print the address.
wait_addr() {
	wait_for_line "$1" "^$2: listening on " 100 || fail "$2 never announced its address: $(cat "$1")"
	sed -n "s/^$2: listening on //p" "$1"
}

# json_field FILE FIELD: extract a numeric field from a one-line JSON
# record (the dbt.RunStats encoding dbtrun -json emits).
json_field() {
	sed -n "s/.*\"$2\":\\(-\\{0,1\\}[0-9][0-9]*\\).*/\\1/p" "$1"
}

# same_fields WANT_JSON GOT_JSON WHAT FIELD...: the named fields must be
# present and equal in both dbtrun -json records.
same_fields() {
	want_file="$1" got_file="$2" what="$3"
	shift 3
	for field in "$@"; do
		want="$(json_field "$want_file" "$field")"
		got="$(json_field "$got_file" "$field")"
		if [ -z "$want" ] || [ "$want" != "$got" ]; then
			fail "$what: $field diverges ('$want' vs '$got')"
		fi
	done
}

# nonzero_metric FILE REGEX: a /metrics scrape must carry the series
# with a nonzero value.
nonzero_metric() {
	grep -Eq "^$2 [0-9]*[1-9][0-9]*\$" "$1" || fail "/metrics scrape $1 lacks a nonzero $2"
}

run_smoke() {
	# The four real binaries against each other, built once, on the rules
	# one learning run writes. Servers bind an ephemeral port and announce
	# it; the metrics endpoints linger after the work so a scrape cannot
	# race process exit.
	d="$(mktemp -d)"
	pids=""
	trap 'kill $pids 2>/dev/null || true; rm -rf "$d"' EXIT
	for bin in rulelearn dbtrun ruleserve ruleminer; do
		go build -o "$d/$bin" "./cmd/$bin"
	done
	run_rules() { "$d/dbtrun" -bench mcf -backend rules "$@"; }

	# Telemetry, learner side: the learning run serves nonzero per-phase
	# timings and store counters.
	"$d/rulelearn" -out "$d/rules.txt" -metrics-addr 127.0.0.1:0 \
		-metrics-linger 60s >"$d/rl.out" 2>"$d/rl.err" &
	rl_pid=$!
	pids="$pids $rl_pid"
	addr="$(wait_addr "$d/rl.err" telemetry)"
	wait_for_line "$d/rl.out" '^wrote' || fail "rulelearn never reported writing its rules"
	fetch_url "http://$addr/metrics" >"$d/rl.metrics"
	kill "$rl_pid" 2>/dev/null || true
	nonzero_metric "$d/rl.metrics" 'learn_phase_ns_total\{phase="verify",worker="0"\}'
	nonzero_metric "$d/rl.metrics" rules_add_total

	# Telemetry, engine side: a rules-backend run on those rules serves
	# nonzero dispatch and freeze counters.
	"$d/dbtrun" -bench mcf -backend rules -rules "$d/rules.txt" \
		-metrics-addr 127.0.0.1:0 -metrics-linger 60s >"$d/dr.out" 2>"$d/dr.err" &
	dr_pid=$!
	pids="$pids $dr_pid"
	addr="$(wait_addr "$d/dr.err" telemetry)"
	wait_for_line "$d/dr.out" '^rule hits' || fail "dbtrun never reported its rule hits"
	fetch_url "http://$addr/metrics" >"$d/dr.metrics"
	kill "$dr_pid" 2>/dev/null || true
	nonzero_metric "$d/dr.metrics" dbt_dispatch_total
	nonzero_metric "$d/dr.metrics" rules_freeze_total

	# The local-rules run every other run is compared against.
	run_rules -rules "$d/rules.txt" -json >"$d/local.json"

	# Distribution: the same rule file served over the wire reproduces the
	# local run exactly, and fills the last-known-good cache.
	"$d/ruleserve" -rules "$d/rules.txt" -addr 127.0.0.1:0 >"$d/rs.out" 2>"$d/rs.err" &
	rs_pid=$!
	pids="$pids $rs_pid"
	serve_addr="$(wait_addr "$d/rs.err" ruleserve)"
	run_rules -rules-url "$serve_addr" -rules-cache "$d/cache" -json >"$d/served.json" 2>"$d/served.err"
	same_fields "$d/local.json" "$d/served.json" "served vs local rules" ret guest_instrs

	# Mining flywheel: a ruleminer seeded from that server mines a few
	# rounds (it keeps serving after "mining done"); a run subscribed to
	# it reproduces ret and guest_instrs while strictly beating the
	# baseline's dyn_covered.
	"$d/ruleminer" -bench mcf -rules-url "$serve_addr" -addr 127.0.0.1:0 \
		-rounds 4 >"$d/rm.out" 2>"$d/rm.err" &
	rm_pid=$!
	pids="$pids $rm_pid"
	mine_addr="$(wait_addr "$d/rm.err" ruleminer)"
	wait_for_line "$d/rm.err" '^ruleminer: mining done' 3000 || fail "ruleminer never finished its rounds: $(cat "$d/rm.err")"
	run_rules -rules-url "$mine_addr" -rules-watch -json >"$d/mined.json" 2>"$d/mined.err"
	kill "$rm_pid" "$rs_pid" 2>/dev/null || true
	wait "$rm_pid" "$rs_pid" 2>/dev/null || true
	grep -q '[1-9][0-9]* added' "$d/rm.err" || fail "no round ever added a mined rule: $(cat "$d/rm.err")"
	same_fields "$d/local.json" "$d/mined.json" "mined vs baseline" ret guest_instrs
	base_cov="$(json_field "$d/local.json" dyn_covered)"
	mined_cov="$(json_field "$d/mined.json" dyn_covered)"
	if [ -z "$base_cov" ] || [ -z "$mined_cov" ] || [ "$mined_cov" -le "$base_cov" ]; then
		fail "dyn_covered did not increase ($base_cov -> $mined_cov)"
	fi

	# Cache fallback: with the server gone, the same command line exits 0,
	# warns, and reproduces the served run from the cache; with no cache
	# either, the run degrades to pure TCG, still exit 0.
	run_rules -rules-url "$serve_addr" -rules-cache "$d/cache" -rules-retries 1 -rules-timeout 2s \
		-json >"$d/cached.json" 2>"$d/cached.err" ||
		fail "dbtrun with dead server + cache exited nonzero: $(cat "$d/cached.err")"
	grep -q 'using cached snapshot' "$d/cached.err" || fail "no cached-snapshot warning on stderr"
	same_fields "$d/served.json" "$d/cached.json" "cached vs served" ret guest_instrs dyn_covered
	run_rules -rules-url "$serve_addr" -rules-retries 1 -rules-timeout 2s \
		-json >"$d/tcg.json" 2>"$d/tcg.err" ||
		fail "dbtrun with dead server and no cache exited nonzero"
	grep -q 'pure TCG fallback' "$d/tcg.err" || fail "no pure-TCG warning on stderr"

	echo "ci.sh: smoke OK (metrics nonzero; ret/guest_instrs equal local = served = cached = mined; dyn_covered $base_cov -> $mined_cov; TCG fallback clean)"
}

case "$stage" in
check) run_check ;;
race) run_race ;;
fuzz) run_fuzz ;;
smoke) run_smoke ;;
all)
	run_check
	run_race
	fuzztime="${FUZZTIME:-5s}"
	run_fuzz
	run_smoke
	;;
*)
	echo "ci.sh: unknown stage '$stage' (want check|race|fuzz|smoke|all)" >&2
	exit 2
	;;
esac
