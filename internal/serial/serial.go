// Package serial provides the machinery to validate Theorem 4.4
// empirically: the serial execution of Definition 3.4 (updates chased
// one at a time in priority order, with no concurrency control — it
// shares no code with the cc package it judges) and a
// database-equivalence checker that compares final states up to a
// bijective renaming of labeled nulls — chases mint fresh nulls from a
// store-wide counter, so two equivalent executions generally disagree
// on null identities.
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
	e := chase.NewEngine(st, set)
	e.MaxStepsPerAttempt = 100000
	r := chase.Runner{Engine: e, User: user}
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
			u.NoTrace = true
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

// fact is a flattened tuple for matching.
type fact struct {
	rel   string
	vals  []model.Value
	canon string
}

// flatten orders the facts deterministically and deduplicates by
// content (set semantics).
func flatten(db map[string][]model.Tuple) []fact {
	var out []fact
	seen := make(map[string]bool)
	rels := make([]string, 0, len(db))
	for rel := range db {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		for _, t := range db[rel] {
			key := t.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, fact{rel: rel, vals: t.Vals, canon: string(model.AppendCanonTuple(nil, t))})
		}
	}
	return out
}

// Equivalent reports whether two databases (as returned by
// storage.Snapshot.VisibleFacts) contain the same facts up to a
// bijective renaming of labeled nulls. The search is exact
// (backtracking) with a node budget; exceeding the budget returns an
// error rather than a wrong answer.
func Equivalent(a, b map[string][]model.Tuple) (bool, error) {
	return equivalentBudget(a, b, 2_000_000)
}

// MustEquivalent is Equivalent for tests: budget exhaustion panics.
func MustEquivalent(a, b map[string][]model.Tuple) bool {
	eq, err := Equivalent(a, b)
	if err != nil {
		panic(err)
	}
	return eq
}

func equivalentBudget(a, b map[string][]model.Tuple, budget int) (bool, error) {
	af, bf := flatten(a), flatten(b)
	if len(af) != len(bf) {
		return false, nil
	}
	// Necessary condition: per-(relation, per-tuple canonical form)
	// counts must agree; this also builds candidate lists.
	byCanon := make(map[string][]int)
	for j := range bf {
		k := bf[j].rel + "\x00" + bf[j].canon
		byCanon[k] = append(byCanon[k], j)
	}
	cands := make([][]int, len(af))
	for i := range af {
		k := af[i].rel + "\x00" + af[i].canon
		cands[i] = byCanon[k]
		if len(cands[i]) == 0 {
			return false, nil
		}
	}
	// Match the most constrained facts first.
	order := make([]int, len(af))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return len(cands[order[x]]) < len(cands[order[y]])
	})

	usedB := make([]bool, len(bf))
	fwd := make(map[int64]int64) // a-null id -> b-null id
	rev := make(map[int64]int64)
	nodes := 0

	var bindPair func(av, bv model.Value, undo *[]func()) bool
	bindPair = func(av, bv model.Value, undo *[]func()) bool {
		if av.IsConst() || bv.IsConst() {
			return av == bv
		}
		ai, bi := av.NullID(), bv.NullID()
		if m, ok := fwd[ai]; ok {
			return m == bi
		}
		if m, ok := rev[bi]; ok {
			return m == ai
		}
		fwd[ai] = bi
		rev[bi] = ai
		*undo = append(*undo, func() {
			delete(fwd, ai)
			delete(rev, bi)
		})
		return true
	}

	var rec func(pos int) (bool, error)
	rec = func(pos int) (bool, error) {
		if pos == len(order) {
			return true, nil
		}
		i := order[pos]
		for _, j := range cands[i] {
			if usedB[j] {
				continue
			}
			nodes++
			if nodes > budget {
				return false, fmt.Errorf("serial: isomorphism search budget exceeded (%d nodes)", budget)
			}
			var undo []func()
			ok := true
			for p := range af[i].vals {
				if !bindPair(af[i].vals[p], bf[j].vals[p], &undo) {
					ok = false
					break
				}
			}
			if ok {
				usedB[j] = true
				found, err := rec(pos + 1)
				if err != nil {
					return false, err
				}
				if found {
					return true, nil
				}
				usedB[j] = false
			}
			for k := len(undo) - 1; k >= 0; k-- {
				undo[k]()
			}
		}
		return false, nil
	}
	return rec(0)
}

// Explain renders a human-readable comparison of two databases for
// test failure messages: facts only in a, facts only in b (by
// canonical form), and sizes.
func Explain(a, b map[string][]model.Tuple) string {
	count := func(db map[string][]model.Tuple) map[string]int {
		m := make(map[string]int)
		for _, f := range flatten(db) {
			m[f.rel+" "+f.canon]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	var onlyA, onlyB []string
	for k, n := range ca {
		if cb[k] < n {
			onlyA = append(onlyA, fmt.Sprintf("%s (x%d vs x%d)", k, n, cb[k]))
		}
	}
	for k, n := range cb {
		if ca[k] < n {
			onlyB = append(onlyB, fmt.Sprintf("%s (x%d vs x%d)", k, n, ca[k]))
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	var sb strings.Builder
	fmt.Fprintf(&sb, "a: %d facts, b: %d facts\n", len(flatten(a)), len(flatten(b)))
	if len(onlyA) > 0 {
		fmt.Fprintf(&sb, "canonical forms overrepresented in a:\n  %s\n", strings.Join(onlyA, "\n  "))
	}
	if len(onlyB) > 0 {
		fmt.Fprintf(&sb, "canonical forms overrepresented in b:\n  %s\n", strings.Join(onlyB, "\n  "))
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		sb.WriteString("canonical multisets agree (difference, if any, is in shared-null structure)\n")
	}
	return sb.String()
}
