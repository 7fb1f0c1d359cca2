package cc

import (
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// A cancelled update stays uncommitted until every lower-numbered
// update commits. These tests drive the case where a lower-numbered
// update writes, in that window, into what the cancelled update read:
// the cancelled update must not be rolled back and re-run.
//
//	hold: H(x) -> exists z: K(x, z) & L(z)
//	look: J(x) & K(x, y) -> exists w: M(x, w) & N(w)
//
// K(h, k), K(g, k) and M(h, m) are loaded, so update 1 (insert H(h)),
// update 2 (insert J(h)) and update 3 (insert H(g)) each stop at a
// positive frontier. Update 2 has read look's violations through
// K(h, k); update 1 then expands K(h, z), which adds a second one. When
// update 2 is cancelled, nothing may abort. When update 3 is, update 2
// is a true victim, and NAIVE's cascade from it reaches update 3.

var cancelOps = []chase.Op{
	chase.Insert(model.NewTuple("H", model.Const("h"))),
	chase.Insert(model.NewTuple("J", model.Const("h"))),
	chase.Insert(model.NewTuple("H", model.Const("g"))),
}

// cancelCases name the update each run cancels.
var cancelCases = []struct {
	name      string
	cancelled int
}{
	{"read-victim", 2},
	{"cascade-victim", 3},
}

func cancelFixture(t *testing.T) (*storage.Store, *tgd.Set) {
	t.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("H", "x")
	schema.MustAddRelation("K", "x", "z")
	schema.MustAddRelation("L", "z")
	schema.MustAddRelation("J", "x")
	schema.MustAddRelation("M", "x", "w")
	schema.MustAddRelation("N", "w")
	set := tgd.MustNewSet(
		tgd.New("hold",
			[]tgd.Atom{tgd.NewAtom("H", tgd.V("x"))},
			[]tgd.Atom{tgd.NewAtom("K", tgd.V("x"), tgd.V("z")), tgd.NewAtom("L", tgd.V("z"))}),
		tgd.New("look",
			[]tgd.Atom{tgd.NewAtom("J", tgd.V("x")), tgd.NewAtom("K", tgd.V("x"), tgd.V("y"))},
			[]tgd.Atom{tgd.NewAtom("M", tgd.V("x"), tgd.V("w")), tgd.NewAtom("N", tgd.V("w"))}),
	)
	if err := set.Validate(schema); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(schema)
	for _, tu := range []model.Tuple{
		model.NewTuple("K", model.Const("h"), model.Const("k")),
		model.NewTuple("K", model.Const("g"), model.Const("k")),
		model.NewTuple("M", model.Const("h"), model.Const("m")),
	} {
		if _, err := st.Load(tu); err != nil {
			t.Fatal(err)
		}
	}
	return st, set
}

// expandFor answers only the updates whose flag is set, always with the
// first expansion.
func expandFor(allow map[int]bool) chase.User {
	return chase.UserFunc(func(u *chase.Update, _ *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
		if !allow[u.Number] {
			return chase.Decision{}, false
		}
		for _, d := range opts {
			if d.Kind == chase.DecideExpand {
				return d, true
			}
		}
		return chase.Decision{}, false
	})
}

// allAwaiting reports whether every txn has started and stopped at a
// frontier.
func allAwaiting(s *Scheduler) bool {
	if len(s.window) != len(s.ops) {
		return false
	}
	for _, tx := range s.window {
		if tx.Upd.State() != chase.StateAwaitingUser {
			return false
		}
	}
	return true
}

// cancelWatch records the txns' abort counts when one is cancelled, and
// the cancelled txn's attempt: its record is recycled at commit, so
// the check reads the attempt recorded here and the abort counts the
// commits show, and an attempt can only move through an abort.
type cancelWatch struct {
	cancelled int
	attempt   int
	aborts    []int
	commits   *CommitWatch
}

func watchCancel(t *testing.T, s *Scheduler, cancelled int) cancelWatch {
	w := cancelWatch{cancelled: cancelled, attempt: s.txn(cancelled).Upd.Attempt, commits: WatchCommits(t)}
	for _, tx := range s.window {
		w.aborts = append(w.aborts, tx.aborts)
	}
	return w
}

// abortsOf returns txn n's abort count: its record's while it is live,
// the one it committed with after.
func (w cancelWatch) abortsOf(s *Scheduler, n int) int {
	if tx := s.txn(n); tx != nil {
		return tx.aborts
	}
	return w.commits.at[n].Aborts
}

// check checks that the cancelled txn was never rolled back after its
// cancellation, that its insert is gone for good, and that every txn
// committed — only a terminated txn commits — and gave its record and
// update back. When update 3 is the one cancelled, update 2 must have
// been aborted after the cancellation, so the wave did run past it.
func (w cancelWatch) check(t *testing.T, st *storage.Store, s *Scheduler) {
	t.Helper()
	if got := w.abortsOf(s, w.cancelled); got != w.aborts[w.cancelled-1] {
		t.Fatalf("the cancelled update was rolled back: attempt %d, aborts %d -> %d", w.attempt, w.aborts[w.cancelled-1], got)
	}
	if w.cancelled == 3 && w.abortsOf(s, 2) == w.aborts[1] {
		t.Fatal("update 2 was not aborted after update 3's cancellation: the case is not exercised")
	}
	for _, tx := range w.commits.Txns(len(s.ops)) {
		if !tx.Committed || s.txn(tx.Number) != nil {
			t.Fatalf("update %d: committed %v, record released %v", tx.Number, tx.Committed, s.txn(tx.Number) == nil)
		}
	}
	if len(s.window) != 0 || len(s.free) != len(s.ops) {
		t.Fatalf("%d records live and %d free after the run, want 0 and %d", len(s.window), len(s.free), len(s.ops))
	}
	rel, want := "J", 0
	if w.cancelled == 3 {
		rel, want = "H", 1
	}
	if n := countRel(st.Snap(1<<30), rel); n != want {
		t.Fatalf("%s holds %d tuples, want %d: the cancelled insert came back", rel, n, want)
	}
}

func TestCancelledUpdateIsNoConflictVictim(t *testing.T) {
	for _, tr := range []Tracker{Naive{}, Coarse{}, Precise{}} {
		for _, tc := range cancelCases {
			t.Run(tr.Name()+"/"+tc.name, func(t *testing.T) {
				st, set := cancelFixture(t)
				allow := map[int]bool{}
				s := NewScheduler(st, set, Config{Tracker: tr, Policy: PolicyRoundRobinStep, User: expandFor(allow)})
				s.begin(cancelOps)
				for round := 0; !allAwaiting(s); round++ {
					if round == 5 {
						t.Fatal("the updates did not all reach a frontier")
					}
					if _, err := s.round(); err != nil {
						t.Fatal(err)
					}
				}
				victim := s.txn(tc.cancelled)
				if len(victim.Upd.StoredReads()) == 0 {
					t.Fatalf("update %d stored no reads", tc.cancelled)
				}
				w := watchCancel(t, s, tc.cancelled)
				if err := s.cancel(victim); err != nil {
					t.Fatal(err)
				}
				allow[1], allow[2], allow[3] = true, true, true
				_, err := s.end(s.loop())
				if got := w.abortsOf(s, tc.cancelled); got != w.aborts[tc.cancelled-1] {
					t.Fatalf("the cancelled update was rolled back and re-run (attempt %d, aborts %d -> %d, run error %v)", w.attempt, w.aborts[tc.cancelled-1], got, err)
				}
				if err != nil {
					t.Fatal(err)
				}
				w.check(t, st, s)
			})
		}
	}
}

func TestParallelCancelledUpdateIsNoConflictVictim(t *testing.T) {
	for _, tr := range []Tracker{Naive{}, Coarse{}, Precise{}} {
		for _, tc := range cancelCases {
			t.Run(tr.Name()+"/"+tc.name, func(t *testing.T) {
				st, set := cancelFixture(t)
				allow := map[int]bool{}
				// A round width of one per update, so every round steps
				// all three.
				s := NewScheduler(st, set, Config{Tracker: tr, Workers: len(cancelOps), User: expandFor(allow)})
				s.begin(cancelOps)
				// The updates step to their frontiers in rounds, a deadline
				// abort cancels one between rounds, as inboxIdle does, and
				// the others get their answers and finish.
				for round := 0; !allAwaiting(s); round++ {
					if round == 5 {
						t.Fatal("the updates did not all reach a frontier")
					}
					if _, err := s.round(); err != nil {
						t.Fatal(err)
					}
				}
				victim := s.txn(tc.cancelled)
				w := watchCancel(t, s, tc.cancelled)
				if err := s.cancel(victim); err != nil {
					t.Fatal(err)
				}
				allow[1], allow[2], allow[3] = true, true, true
				if _, err := s.end(s.loop()); err != nil {
					t.Fatal(err)
				}
				w.check(t, st, s)
			})
		}
	}
}

// countRel returns the number of tuples of rel visible in sn.
func countRel(sn *storage.Snapshot, rel string) int {
	rows, _ := sn.ProbeRows(rel, -1, model.Value{}, nil, nil)
	return len(rows)
}
