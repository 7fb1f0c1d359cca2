// Package serial provides the machinery to validate Theorem 4.4
// empirically: the serial execution of Definition 3.4 (updates chased
// one at a time in priority order, with no concurrency control — it
// shares no code with the cc package it judges) and a
// database-equivalence checker. A chase names each null it mints by
// (namespace, update, ordinal) (chase.Engine.mint), so a concurrent
// run and its serial execution end in the same facts under the same
// null names, and equivalence is set equality.
package serial

import (
	"fmt"
	"sort"
	"strings"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// Execute runs the workload serially against the given store: update 1
// is chased to termination by chase.Runner and committed, then update
// 2, and so on. It is the reference execution Definition 3.4 compares
// against. A committed update is forgotten by a stateful user
// (chase.Forgetter), and Execute returns only once every commit is
// acknowledged, the durability point the schedulers' runs share. It
// returns the chase work summed over the updates.
func Execute(st storage.Backend, set *tgd.Set, ops []chase.Op, user chase.User) (chase.Stats, error) {
	r := chase.Runner{Engine: chase.NewEngine(st, set), User: user}
	forget, _ := user.(chase.Forgetter)
	var total chase.Stats
	var acks []storage.CommitAck
	err := func() error {
		var u *chase.Update
		for i, op := range ops {
			n := i + 1
			if u == nil {
				u = chase.NewUpdate(n, op)
			} else {
				u.Renew(n, op)
			}
			s, err := r.Run(u)
			addStats(&total, s)
			if err != nil {
				return fmt.Errorf("serial: update %d: %w", n, err)
			}
			ack, err := st.CommitBatchAsync([]int{n})
			if err != nil {
				return fmt.Errorf("serial: commit of update %d: %w", n, err)
			}
			if ack != nil {
				acks = append(acks, ack)
			}
			if forget != nil {
				forget.Forget(n)
			}
		}
		return nil
	}()
	for _, ack := range acks {
		if aerr := ack(); aerr != nil && err == nil {
			err = fmt.Errorf("serial: commit acknowledgment: %w", aerr)
		}
	}
	return total, err
}

// addStats adds one update's chase statistics to a total.
func addStats(dst *chase.Stats, s chase.Stats) {
	dst.Steps += s.Steps
	dst.Writes += s.Writes
	dst.FrontierRequests += s.FrontierRequests
	dst.FrontierOps += s.FrontierOps
	dst.Expansions += s.Expansions
	dst.Unifications += s.Unifications
	dst.DeletionChoices += s.DeletionChoices
	dst.Reconfirmations += s.Reconfirmations
}

// facts returns the distinct facts of a database (as returned by
// storage.Snapshot.VisibleFacts) by tuple key, which renders every
// value exactly: set semantics, nulls by identity.
func facts(db map[string][]model.Tuple) map[string]model.Tuple {
	out := make(map[string]model.Tuple)
	for _, ts := range db {
		for _, t := range ts {
			out[t.Key()] = t
		}
	}
	return out
}

// Equivalent reports whether two databases (as returned by
// storage.Snapshot.VisibleFacts) contain the same facts, labeled nulls
// compared by identity. It never fails; the error result keeps the
// signature its callers use.
func Equivalent(a, b map[string][]model.Tuple) (bool, error) {
	fa, fb := facts(a), facts(b)
	for k := range fa {
		if _, ok := fb[k]; !ok {
			return false, nil
		}
	}
	return len(fa) == len(fb), nil
}

// Explain renders a human-readable comparison of two databases for
// test failure messages: their sizes and the facts only one holds.
func Explain(a, b map[string][]model.Tuple) string {
	fa, fb := facts(a), facts(b)
	var lines []string
	for k, t := range fa {
		if _, ok := fb[k]; !ok {
			lines = append(lines, "only in a: "+t.String())
		}
	}
	for k, t := range fb {
		if _, ok := fa[k]; !ok {
			lines = append(lines, "only in b: "+t.String())
		}
	}
	sort.Strings(lines)
	return fmt.Sprintf("a: %d facts, b: %d facts\n", len(fa), len(fb)) + strings.Join(lines, "\n")
}
