//go:build !race

package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"dbtrules/arm"
	"dbtrules/internal/telemetry"
	"dbtrules/rules"
	"dbtrules/x86"
)

// contentionOps spans the data-processing opcode range: a one-instruction
// pattern's mean key is its opcode value, so each op name lands its rules
// in a different store shard. Writer w using contentionOps[w%15] gives up
// to 15 writers disjoint shards — the sharded store's best case and the
// single-lock store's unchanged worst case.
var contentionOps = []string{
	"and", "eor", "sub", "rsb", "add", "adc", "sbc",
	"tst", "teq", "cmp", "cmn", "orr", "mov", "bic", "mvn",
}

// contentionRule builds the n'th distinct one-instruction rule for op.
func contentionRule(id int, op string, n int) *rules.Rule {
	var line string
	switch op {
	case "mov", "mvn":
		line = fmt.Sprintf("%s r0, #%d", op, n)
	case "cmp", "cmn", "tst", "teq":
		line = fmt.Sprintf("%s r0, #%d", op, n)
	default:
		line = fmt.Sprintf("%s r0, r0, #%d", op, n)
	}
	r := &rules.Rule{
		ID:           id,
		Guest:        []arm.Instr{arm.MustParse(line)},
		Host:         []x86.Instr{x86.MustParse(fmt.Sprintf("movl $%d, %%eax", n))},
		NumRegParams: 1,
		Source:       fmt.Sprintf("cont:%s:%d", op, n),
	}
	return r
}

// writerRules pre-builds one writer's pattern set, all in the shard its
// op selects.
func writerRules(w, patterns int) []*rules.Rule {
	op := contentionOps[w%len(contentionOps)]
	out := make([]*rules.Rule, patterns)
	for n := 0; n < patterns; n++ {
		out[n] = contentionRule(w*patterns+n+1, op, n)
	}
	return out
}

// histP99 extracts the p99 latency upper bound (ns) from a telemetry
// histogram snapshot. Buckets are powers of two, so the bound is exact to
// a factor of two — coarse, but the contention gate compares multi-µs
// lock-wait tails against sub-µs ones, which is several buckets apart.
func histP99(h telemetry.HistogramSnapshot) int64 {
	if h.Count == 0 {
		return 0
	}
	type bucket struct {
		bound int64
		n     uint64
	}
	var buckets []bucket
	for key, n := range h.Buckets {
		if key == "+Inf" {
			buckets = append(buckets, bucket{1 << 62, n})
			continue
		}
		bound, err := strconv.ParseInt(key, 10, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{bound, n})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].bound < buckets[j].bound })
	target := h.Count - h.Count/100 // ceil semantics: the bucket holding the 99th percentile
	var cum uint64
	for _, b := range buckets {
		cum += b.n
		if cum >= target {
			return b.bound
		}
	}
	return buckets[len(buckets)-1].bound
}

// measureAddP99 hammers one store with `writers` concurrent goroutines
// re-Adding their pre-built pattern sets for `rounds` passes and returns
// the rules_add_ns p99 (lock wait included — the histogram times Add from
// call entry). Re-Adds after the first pass are dedup rejections, which
// still take the shard write lock: the store stays bounded while the lock
// traffic stays realistic.
func measureAddP99(shards, writers, patterns, rounds int) int64 {
	store := rules.NewStoreShards(shards)
	reg := telemetry.New(0)
	store.SetTelemetry(reg)
	sets := make([][]*rules.Rule, writers)
	for w := range sets {
		sets[w] = writerRules(w, patterns)
	}
	var start, done sync.WaitGroup
	start.Add(1)
	for w := 0; w < writers; w++ {
		done.Add(1)
		go func(set []*rules.Rule) {
			defer done.Done()
			start.Wait()
			for r := 0; r < rounds; r++ {
				for _, rule := range set {
					store.Add(rule)
				}
			}
		}(sets[w])
	}
	start.Done()
	done.Wait()
	return histP99(reg.Snapshot(false).Histograms["rules_add_ns"])
}

// TestStoreContentionGate is the concurrent-writer gate: with at
// least 4 writers on disjoint shards, sharding must improve the
// lock-wait-inclusive rules_add_ns p99 by >= 2x over a single-lock store.
// The EXPERIMENTS.md contention entry records the measured before/after.
func TestStoreContentionGate(t *testing.T) {
	// Physical parallelism is what the gate needs: on a 1-CPU box even a
	// forced GOMAXPROCS makes writers timeshare, and scheduler preemption
	// noise (not lock wait) then dominates both stores' p99 equally.
	procs := runtime.NumCPU()
	if procs < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful contention gate, have %d", procs)
	}
	writers := procs
	if writers > 8 {
		writers = 8
	}
	const patterns, rounds = 32, 400
	singleP99 := measureAddP99(1, writers, patterns, rounds)
	shardedP99 := measureAddP99(rules.DefaultShards, writers, patterns, rounds)
	if singleP99 == 0 || shardedP99 == 0 {
		t.Fatalf("empty rules_add_ns histogram (single %d, sharded %d)", singleP99, shardedP99)
	}
	ratio := float64(singleP99) / float64(shardedP99)
	t.Logf("rules_add_ns p99 at %d writers: single-lock <=%dns, %d-shard <=%dns (%.1fx)",
		writers, singleP99, rules.DefaultShards, shardedP99, ratio)
	if ratio < 2 {
		t.Errorf("sharding improved concurrent-writer Add p99 only %.2fx (single <=%dns, sharded <=%dns), want >= 2x",
			ratio, singleP99, shardedP99)
	}
}

// BenchmarkStoreAddParallel measures concurrent Add throughput at
// GOMAXPROCS writers on disjoint shards, for the single-lock baseline and
// the sharded store.
func BenchmarkStoreAddParallel(b *testing.B) {
	for _, shards := range []int{1, rules.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			store := rules.NewStoreShards(shards)
			var next int64
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				w := int(next)
				next++
				mu.Unlock()
				set := writerRules(w, 32)
				i := 0
				for pb.Next() {
					store.Add(set[i%len(set)])
					i++
				}
			})
		})
	}
}

// BenchmarkFreezeSharded measures the refreeze path: "cached" refreezes
// an unchanged store — the stitched-index cache makes this O(shards)
// pointer compares returning the previous Index, and the sub-case asserts
// that identity; "dirty1" quarantines one shard-0 rule before each
// freeze, so exactly one shard rebuilds and the stitch re-runs while the
// rest come from per-shard snapshot caches. shards=1 is the pre-sharding
// behaviour (every mutation invalidates the whole snapshot).
func BenchmarkFreezeSharded(b *testing.B) {
	// Most of the store spreads over all shards; the quarantine victims
	// concentrate in shard 0, so "dirty1" rebuilds a shard holding a small
	// fraction of the rules — the confinement the snap cache buys.
	const spread = 256 // rules per op, spread over all shards
	build := func(shards int) *rules.Store {
		store := rules.NewStoreShards(shards)
		id := 1
		for _, op := range contentionOps {
			for n := 0; n < spread; n++ {
				store.Add(contentionRule(id, op, n))
				id++
			}
		}
		return store
	}
	for _, shards := range []int{1, rules.DefaultShards} {
		b.Run(fmt.Sprintf("cached/shards=%d", shards), func(b *testing.B) {
			store := build(shards)
			first := store.Freeze()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := store.Freeze(); ix != first {
					b.Fatal("no-op refreeze rebuilt the stitched index")
				}
			}
		})
		b.Run(fmt.Sprintf("dirty1/shards=%d", shards), func(b *testing.B) {
			// Sacrificial shard-0 rules, quarantined one per iteration;
			// the store is rebuilt outside the timer when the pool runs dry.
			const pool = 512
			newPool := func() *rules.Store {
				store := build(shards)
				for i := 0; i < pool; i++ {
					store.Add(contentionRule(100_000+i, "and", spread+1000+i))
				}
				store.Freeze()
				return store
			}
			store := newPool()
			victim := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if victim == pool {
					b.StopTimer()
					store = newPool()
					victim = 0
					b.StartTimer()
				}
				b.StopTimer()
				store.Quarantine(100_000 + victim)
				victim++
				b.StartTimer()
				store.Freeze()
			}
		})
	}
}
