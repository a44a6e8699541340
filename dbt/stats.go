package dbt

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// StatsSnapshot is the canonical wire form of Stats: fixed field order,
// snake_case names, and RuleHitsByLen flattened to stable "length:count"
// strings (JSON maps with int keys marshal in undefined order). Every
// consumer that serializes engine counters — `dbtrun -json`, the bench
// golden files — goes through this one shape, so the encodings cannot
// drift apart.
//
// StatsSnapshot is a plain struct with no MarshalJSON of its own: types
// that embed it keep control of their outer object while inheriting the
// flattened counter fields in this order.
type StatsSnapshot struct {
	GuestInstrs    uint64 `json:"guest_instrs"`
	HostInstrs     uint64 `json:"host_instrs"`
	ExecCycles     uint64 `json:"exec_cycles"`
	TransCycles    uint64 `json:"trans_cycles"`
	DispatchCount  uint64 `json:"dispatch_count"`
	TBCount        uint64 `json:"tb_count"`
	ChainHits      uint64 `json:"chain_hits"`
	StaticCovered  uint64 `json:"static_covered"`
	StaticTotal    uint64 `json:"static_total"`
	DynCovered     uint64 `json:"dyn_covered"`
	DynTotal       uint64 `json:"dyn_total"`
	RuleApplyFails uint64 `json:"rule_apply_fails"`
	GuestCodeBytes uint64 `json:"guest_code_bytes"`
	HostCodeBytes  uint64 `json:"host_code_bytes"`
	// RuleHits is RuleHitsByLen flattened to "length:count" in ascending
	// length order; nil (omitted) when no rules hit.
	RuleHits []string `json:"rule_hits,omitempty"`

	// Fault-containment counters; omitted when zero so fault-free
	// snapshots (the golden files) stay byte-identical to the
	// pre-containment encoding.
	Faults           uint64 `json:"faults,omitempty"`
	Recoveries       uint64 `json:"recoveries,omitempty"`
	QuarantinedRules uint64 `json:"quarantined_rules,omitempty"`
	InvalidatedTBs   uint64 `json:"invalidated_tbs,omitempty"`
}

// FlattenHits renders a RuleHitsByLen map as stable "length:count"
// strings in ascending length order, nil for an empty map.
func FlattenHits(m map[int]uint64) []string {
	if len(m) == 0 {
		return nil
	}
	lens := make([]int, 0, len(m))
	for l := range m {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	out := make([]string, 0, len(lens))
	for _, l := range lens {
		out = append(out, fmt.Sprintf("%d:%d", l, m[l]))
	}
	return out
}

// Snapshot converts the live counters to the canonical wire form.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		GuestInstrs:    s.GuestInstrs,
		HostInstrs:     s.HostInstrs,
		ExecCycles:     s.ExecCycles,
		TransCycles:    s.TransCycles,
		DispatchCount:  s.DispatchCount,
		TBCount:        s.TBCount,
		ChainHits:      s.ChainHits,
		StaticCovered:  s.StaticCovered,
		StaticTotal:    s.StaticTotal,
		DynCovered:     s.DynCovered,
		DynTotal:       s.DynTotal,
		RuleApplyFails: s.RuleApplyFails,
		GuestCodeBytes: s.GuestCodeBytes,
		HostCodeBytes:  s.HostCodeBytes,
		RuleHits:       FlattenHits(s.RuleHitsByLen),

		Faults:           s.Faults,
		Recoveries:       s.Recoveries,
		QuarantinedRules: s.QuarantinedRules,
		InvalidatedTBs:   s.InvalidatedTBs,
	}
}

// MarshalJSON encodes the stats in the canonical snapshot form.
func (s *Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}

// String renders the counters as the aligned human-readable block printed
// by cmd/dbtrun: the universal counters always, the fault-containment line
// only when something was contained or invalidated.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guest instrs   %d\n", s.GuestInstrs)
	fmt.Fprintf(&b, "host instrs    %d\n", s.HostInstrs)
	fmt.Fprintf(&b, "exec cycles    %d\n", s.ExecCycles)
	fmt.Fprintf(&b, "trans cycles   %d\n", s.TransCycles)
	fmt.Fprintf(&b, "total cycles   %d\n", s.TotalCycles())
	fmt.Fprintf(&b, "blocks         %d translated, %d dispatches\n", s.TBCount, s.DispatchCount)
	fmt.Fprintf(&b, "chaining       %d hits (%.1f%% of dispatches)\n",
		s.ChainHits, 100*float64(s.ChainHits)/float64(s.DispatchCount))
	if s.Faults > 0 || s.InvalidatedTBs > 0 {
		fmt.Fprintf(&b, "faults         %d contained, %d recoveries, %d rules quarantined, %d TBs invalidated\n",
			s.Faults, s.Recoveries, s.QuarantinedRules, s.InvalidatedTBs)
	}
	return b.String()
}

// RunStats is one complete `dbtrun` run record: workload identity, the
// guest program's return value, and the canonical counter snapshot.
// `dbtrun -json` emits it as a single JSON line.
type RunStats struct {
	Bench    string `json:"bench"`
	Backend  string `json:"backend"`
	Workload string `json:"workload,omitempty"`
	// Tier is the execution-tier setting the run used ("interp",
	// "threaded", "auto"); Tiers carries the per-tier dispatch split and
	// promotion counts. Both ride outside StatsSnapshot — the snapshot is
	// the cross-tier-identical cycle model, the tier fields are the
	// wall-clock story — and are omitted by older producers.
	Tier  string     `json:"tier,omitempty"`
	Tiers *TierStats `json:"tiers,omitempty"`
	Ret   int32      `json:"ret"`
	StatsSnapshot
}
