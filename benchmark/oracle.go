package main

import (
	"encoding/json"
	"fmt"

	"dbtrules/dbt"
)

// oracle counts the operations a run attempted and the ones whose result
// was wrong. Every check compares the program under test against
// something independent of it: the ARM interpreter's result for the same
// call, a second execution path that must agree byte for byte, or a hash
// computed on the other side of the wire.
type oracle struct {
	attempted, failed int
	curFailed         bool
	messages          []string
}

// maxMessages caps the failure texts kept for the report.
const maxMessages = 20

// begin starts the next operation; failf calls until the next begin
// count as one failed operation.
func (o *oracle) begin() {
	o.attempted++
	o.curFailed = false
}

func (o *oracle) failf(format string, args ...any) {
	if !o.curFailed {
		o.failed++
		o.curFailed = true
	}
	if len(o.messages) < maxMessages {
		o.messages = append(o.messages, fmt.Sprintf(format, args...))
	}
}

// checkRun judges one emulated call against the interpreter: no error,
// the same r0, and the same number of guest instructions.
// The operation is named by format and args, which are only rendered
// when the check fails (there is one check per timed Run).
func (o *oracle) checkRun(ret uint32, err error, guestInstrs uint64, want refRun, format string, args ...any) {
	var problem string
	switch {
	case err != nil:
		problem = err.Error()
	case ret != want.Ret:
		problem = fmt.Sprintf("returned %d, interpreter %d", ret, want.Ret)
	case guestInstrs != want.Steps:
		problem = fmt.Sprintf("executed %d guest instructions, interpreter %d", guestInstrs, want.Steps)
	default:
		return
	}
	o.failf("%s: %s", fmt.Sprintf(format, args...), problem)
}

// snapshotJSON is the canonical encoding two runs are compared in when
// their StatsSnapshot must be byte-identical.
func snapshotJSON(s dbt.StatsSnapshot) string {
	data, err := json.Marshal(&s)
	if err != nil {
		// StatsSnapshot is plain counters and strings; Marshal cannot fail.
		panic(err)
	}
	return string(data)
}

// statsDelta is the part of an engine's counters one Run added, for an
// engine whose code cache was flushed before the Run (so the Run
// translated everything it executed, exactly as a fresh engine would).
func statsDelta(after, before *dbt.Stats) dbt.StatsSnapshot {
	d := dbt.Stats{
		GuestInstrs:    after.GuestInstrs - before.GuestInstrs,
		HostInstrs:     after.HostInstrs - before.HostInstrs,
		ExecCycles:     after.ExecCycles - before.ExecCycles,
		TransCycles:    after.TransCycles - before.TransCycles,
		DispatchCount:  after.DispatchCount - before.DispatchCount,
		TBCount:        after.TBCount - before.TBCount,
		StaticCovered:  after.StaticCovered - before.StaticCovered,
		StaticTotal:    after.StaticTotal - before.StaticTotal,
		DynCovered:     after.DynCovered - before.DynCovered,
		DynTotal:       after.DynTotal - before.DynTotal,
		RuleApplyFails: after.RuleApplyFails - before.RuleApplyFails,
		ChainHits:      after.ChainHits - before.ChainHits,
		GuestCodeBytes: after.GuestCodeBytes - before.GuestCodeBytes,
		HostCodeBytes:  after.HostCodeBytes - before.HostCodeBytes,
		RuleHitsByLen:  map[int]uint64{},
	}
	for l, n := range after.RuleHitsByLen {
		if dn := n - before.RuleHitsByLen[l]; dn > 0 {
			d.RuleHitsByLen[l] = dn
		}
	}
	return d.Snapshot()
}

// copyStats returns a Stats value that later Runs do not alias (the
// rule-hit map is shared by plain assignment).
func copyStats(s *dbt.Stats) dbt.Stats {
	c := *s
	c.RuleHitsByLen = make(map[int]uint64, len(s.RuleHitsByLen))
	for l, n := range s.RuleHitsByLen {
		c.RuleHitsByLen[l] = n
	}
	return c
}
