package chase_test

import (
	"fmt"
	"math/rand"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/workload"
)

// stringLog is the read log as it was before reads had a structural
// identity: one entry per distinct rendered key. It is the reference
// the identity dedupe is checked against.
type stringLog struct {
	seen   map[string]bool
	stored []query.ReadQuery
}

func (l *stringLog) add(q query.ReadQuery) bool {
	key := q.String()
	if l.seen[key] {
		return false
	}
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	l.seen[key] = true
	l.stored = append(l.stored, q)
	return true
}

// performedReads runs the operations serially and returns, per update,
// every read the chase performed — repeats included. The engine reports
// a read to its observer only when the update's log took it as new, so
// the observer empties the log after each report: the next read is then
// new whatever it repeats. (A serial chase never consults its own log,
// so emptying it does not change what the chase does.)
func performedReads(t *testing.T, u *workload.Universe, ops []chase.Op, userSeed uint64) [][]query.ReadQuery {
	t.Helper()
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := chase.NewEngine(st, u.Mappings)
	eng.MaxStepsPerAttempt = 100000
	var stream []query.ReadQuery
	eng.SetReadObserver(func(up *chase.Update, q query.ReadQuery) {
		stream = append(stream, q)
		up.ReleaseReads()
	})
	runner := &chase.Runner{Engine: eng, User: simuser.New(userSeed)}
	out := make([][]query.ReadQuery, len(ops))
	for i, op := range ops {
		stream = nil
		if _, err := runner.Run(chase.NewUpdate(i+1, op)); err != nil {
			t.Fatalf("update %d: %v", i+1, err)
		}
		if err := st.Commit(i + 1); err != nil {
			t.Fatal(err)
		}
		out[i] = stream
	}
	return out
}

// TestIdentityDedupeStoresWhatStringDedupeStored replays the read
// streams of the random-universe batteries and of the duplicate-heavy
// seed batch (the workload of the PR 2 and PR 5 serializability
// regressions) into an update's read log and into the string-keyed
// reference: both must take and drop exactly the same reads.
func TestIdentityDedupeStoresWhatStringDedupeStored(t *testing.T) {
	type battery struct {
		name     string
		u        *workload.Universe
		ops      []chase.Op
		userSeed uint64
	}
	var batteries []battery
	for seed := int64(1); seed <= 6; seed++ {
		u, err := workload.Build(workload.Config{
			Relations: 10, MinArity: 1, MaxArity: 3, Constants: 6, Mappings: 8, MaxAtomsPerSide: 2,
			InitialTuples: 30, Updates: 10, InsertPct: 80, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		batteries = append(batteries, battery{fmt.Sprintf("random universe %d", seed), u, u.GenOpsSeeded(500 + seed), uint64(seed)})
	}
	dup, err := workload.Build(workload.Config{
		Relations: 10, MinArity: 1, MaxArity: 4, Constants: 12, Mappings: 12, MaxAtomsPerSide: 3,
		InitialTuples: 1, Updates: 0, InsertPct: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	rels := dup.Schema.Names()
	var dupOps []chase.Op
	for i := 0; i < 120; i++ {
		rel := rels[rng.Intn(len(rels))]
		vals := make([]model.Value, dup.Schema.Arity(rel))
		for j := range vals {
			vals[j] = dup.Pool[rng.Intn(len(dup.Pool))]
		}
		dupOps = append(dupOps, chase.Insert(model.NewTuple(rel, vals...)))
	}
	batteries = append(batteries, battery{"duplicate-heavy seed batch", dup, dupOps, 7})

	dropped := 0
	for _, b := range batteries {
		performed, stored, byKind := 0, 0, map[query.Kind]int{}
		for i, stream := range performedReads(t, b.u, b.ops, b.userSeed) {
			log := chase.NewUpdate(i+1, b.ops[i])
			var ref stringLog
			for j, q := range stream {
				if got, want := log.RecordRead(q), ref.add(q); got != want {
					t.Fatalf("%s, update %d, read %d %s: identity log took it = %v, string log = %v",
						b.name, i+1, j, q, got, want)
				}
				byKind[q.Kind()]++
			}
			got := log.StoredReads()
			if len(got) != len(ref.stored) {
				t.Fatalf("%s, update %d: %d reads stored, reference %d", b.name, i+1, len(got), len(ref.stored))
			}
			for j := range got {
				if got[j] != ref.stored[j] {
					t.Fatalf("%s, update %d: stored read %d is %s, reference %s", b.name, i+1, j, got[j], ref.stored[j])
				}
			}
			performed += len(stream)
			stored += len(got)
		}
		t.Logf("%s: %d reads performed, %d stored, by kind %v", b.name, performed, stored, byKind)
		dropped += performed - stored
	}
	if dropped == 0 {
		t.Error("no stream repeated a read: the batteries exercise no dedupe")
	}
}
