package chase

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"youtopia/internal/query"
)

// RecheckAudit counts what CheckRechecks compared.
type RecheckAudit struct {
	// Steps counts the rechecks compared; Entries the queue entries
	// they held before the recheck, and Skipped those the filtered
	// recheck did not re-evaluate.
	Steps, Entries, Skipped atomic.Int64

	mu    sync.Mutex
	first string // the first mismatch, if any
}

// Mismatch returns the first step whose filtered queue differed from
// the full recheck's, or "".
func (a *RecheckAudit) Mismatch() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.first
}

// CheckRechecks makes every chase step until the test ends compare its
// queue after the recheck with the queue a full recheck would leave:
// every entry re-evaluated by query.Engine.Recheck on a copy of its
// violation, dropped when it no longer holds, reactivated when its
// repair did not stick. Entries, order, states, values, witnesses,
// groups and signatures must be equal. The audit is safe under
// concurrent steps.
func CheckRechecks(tb testing.TB) *RecheckAudit {
	a := &RecheckAudit{}
	testRecheck = func(u *Update, qe *query.Engine, recheck func() int) {
		want := fullRecheck(u, qe)
		n := len(u.queue)
		a.Steps.Add(1)
		a.Entries.Add(int64(n))
		a.Skipped.Add(int64(n - recheck()))
		if msg := compareQueue(u, want); msg != "" {
			a.mu.Lock()
			if a.first == "" {
				a.first = fmt.Sprintf("update %d, step %d: %s", u.Number, u.Stats.Steps, msg)
			}
			a.mu.Unlock()
		}
	}
	tb.Cleanup(func() { testRecheck = nil })
	return a
}

// queueRow is one queue entry as the comparison sees it.
type queueRow struct {
	v     query.Violation
	state ViolState
	isLHS bool
	group *FrontierGroup
	sig   string
}

// fullRecheck returns the queue a full recheck would leave, evaluated
// on copies: the update is not touched.
func fullRecheck(u *Update, qe *query.Engine) []queueRow {
	var out []queueRow
	for _, qv := range u.queue {
		v := qv.v
		v.Vals = slices.Clone(v.Vals)
		if !qe.Recheck(&v) {
			continue
		}
		st := qv.state
		if st == ViolRepairing {
			st = ViolPending
		}
		out = append(out, queueRow{v, st, qv.isLHS, qv.group, string(u.qctx.sig(qv))})
	}
	return out
}

// compareQueue describes the first difference between the update's
// queue and want, or returns "".
func compareQueue(u *Update, want []queueRow) string {
	if len(u.queue) != len(want) {
		return fmt.Sprintf("%d entries, full recheck keeps %d", len(u.queue), len(want))
	}
	for i, qv := range u.queue {
		w := &want[i]
		switch {
		case !qv.v.Same(&w.v):
			return fmt.Sprintf("entry %d is %v %v, full recheck has %v %v", i, qv.v.Witness, qv.v.Vals, w.v.Witness, w.v.Vals)
		case qv.state != w.state || qv.isLHS != w.isLHS || qv.group != w.group:
			return fmt.Sprintf("entry %d of %s: state %d, full recheck %d", i, qv.v.TGD.Name, qv.state, w.state)
		case !bytes.Equal(u.qctx.sig(qv), []byte(w.sig)):
			return fmt.Sprintf("entry %d of %s: signature changed", i, qv.v.TGD.Name)
		}
	}
	return ""
}
