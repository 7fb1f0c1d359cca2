package cc

import (
	"fmt"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// widthWatch records what a round changes in each txn it serves — its
// start, its steps, a live poll, or its inbox parking — so a test can
// tell which txns took an opportunity.
type widthWatch struct {
	s     *Scheduler
	polls map[int]int
}

// fingerprints renders every txn's observable scheduling state. The
// rounds run without commit drains, so a txn without a record has not
// started.
func (w *widthWatch) fingerprints() []string {
	out := make([]string, len(w.s.ops))
	for i := range out {
		fp, cancelled := "unstarted", false
		if t := w.s.txn(i + 1); t != nil {
			fp = fmt.Sprintf("steps=%d", t.Upd.Stats.Steps)
			if p := t.park; p != nil {
				fp += fmt.Sprintf(" park=%d offered=%d at=%d", p.id, p.offered, p.steps)
			}
			cancelled = t.cancelled
		}
		out[i] = fmt.Sprintf("%s polls=%d cancelled=%v", fp, w.polls[i+1], cancelled)
	}
	return out
}

// expected returns the numbers of the txns a round of the given width
// serves, by the rule stated independently of Scheduler.round: the
// lowest-numbered uncommitted txns that have not started, are ready, or
// await a user without being parked where no poll can move them.
func (w *widthWatch) expected(width int) []int {
	var out []int
	for n := w.s.committedUpTo + 1; n <= len(w.s.ops); n++ {
		if width > 0 && len(out) == width {
			break
		}
		if t := w.s.txn(n); t != nil {
			switch t.Upd.State() {
			case chase.StateReady:
			case chase.StateAwaitingUser:
				if t.park != nil && !t.park.pollable(w.s.cfg.Inbox, t.Upd) {
					continue
				}
			default:
				continue
			}
		}
		out = append(out, n)
	}
	return out
}

// round runs one round and checks that it served exactly the expected
// txns; it returns how many it served.
func (w *widthWatch) round(t *testing.T) int {
	t.Helper()
	want := w.expected(w.s.cfg.Workers)
	before := w.fingerprints()
	if _, err := w.s.round(); err != nil {
		t.Fatal(err)
	}
	after := w.fingerprints()
	var got []int
	for i := range after {
		if after[i] != before[i] {
			got = append(got, i+1)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("width %d: the round served %v, want %v\nbefore %q\nafter  %q", w.s.cfg.Workers, got, want, before, after)
	}
	if w := w.s.cfg.Workers; w > 0 && len(got) > w {
		t.Fatalf("the round served %d txns, width %d", len(got), w)
	}
	return len(got)
}

// widthFixture is a conflict-free workload: n inserts A(a<i>), each
// repaired forward through A(x) -> B(x).
func widthFixture(t *testing.T, n int) (*storage.Store, *tgd.Set, []chase.Op) {
	t.Helper()
	schema := model.NewSchema()
	schema.MustAddRelation("A", "x")
	schema.MustAddRelation("B", "x")
	set := tgd.MustNewSet(tgd.New("m",
		[]tgd.Atom{tgd.NewAtom("A", tgd.V("x"))},
		[]tgd.Atom{tgd.NewAtom("B", tgd.V("x"))}))
	if err := set.Validate(schema); err != nil {
		t.Fatal(err)
	}
	ops := make([]chase.Op, n)
	for i := range ops {
		ops[i] = chase.Insert(model.NewTuple("A", model.Const(fmt.Sprint("a", i))))
	}
	return storage.NewStore(schema), set, ops
}

// TestRoundWidth pins the round width: a round serves the
// lowest-numbered eligible txns, at most Config.Workers of them, and
// all of them when Workers is zero. Terminated txns and parked txns no
// poll can move are not eligible, so they take no share of the width.
// The rounds run without commit drains, so terminated txns stay in the
// window.
func TestRoundWidth(t *testing.T) {
	for _, width := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", width), func(t *testing.T) {
			const n = 5
			st, set, ops := widthFixture(t, n)
			s := NewScheduler(st, set, Config{Workers: width})
			s.begin(ops)
			w := &widthWatch{s: s}
			for r := 0; ; r++ {
				if r == 50 {
					t.Fatal("the updates did not all terminate")
				}
				served := w.round(t)
				if width == 0 && r == 0 && served != n {
					t.Fatalf("width 0 served %d of %d fresh txns", served, n)
				}
				if served == 0 {
					break
				}
			}
			for k := 1; k <= n; k++ {
				if tx := s.txn(k); tx == nil || tx.Upd.State() != chase.StateTerminated {
					t.Fatalf("update %d did not terminate", k)
				}
			}
			if s.m.Aborts != 0 {
				t.Fatalf("%d aborts: the fixture is not conflict-free", s.m.Aborts)
			}
		})
	}

	// Live polls: a txn awaiting a user is eligible on every round, and
	// takes its share of the width.
	t.Run("polls", func(t *testing.T) {
		st, set := cancelFixture(t)
		w := &widthWatch{polls: map[int]int{}}
		user := chase.UserFunc(func(u *chase.Update, _ *chase.FrontierGroup, _ []chase.Decision, _ string) (chase.Decision, bool) {
			w.polls[u.Number]++
			return chase.Decision{}, false
		})
		w.s = NewScheduler(st, set, Config{Workers: 2, User: user})
		w.s.begin(cancelOps)
		for r := 0; r < 8; r++ {
			w.round(t)
		}
		if w.polls[1] == 0 || w.polls[3] != 0 {
			t.Fatalf("polls %v: updates 1 and 2 should hold the width, update 3 wait", w.polls)
		}
	})

	// Inbox mode at width 1: a txn that parked with no answer to offer
	// yields its share, so each round serves the next txn, and an
	// answer makes the parked txn eligible again.
	t.Run("parked", func(t *testing.T) {
		st, set := cancelFixture(t)
		box := inbox.NewBox()
		s := NewScheduler(st, set, Config{Workers: 1, Inbox: box})
		s.begin(cancelOps)
		w := &widthWatch{s: s}
		for r := 0; !allParked(s); r++ {
			if r == 20 {
				t.Fatal("the updates did not all park")
			}
			if w.round(t) != 1 {
				t.Fatal("a width-1 round with eligible txns served none")
			}
		}
		if served := w.round(t); served != 0 {
			t.Fatalf("a round served %d parked txns with nothing to offer", served)
		}
		entry := s.txn(2).park.id
		if err := box.Answer(entry, inbox.Answer{Context: "no such context"}); err != nil {
			t.Fatal(err)
		}
		w.round(t) // serves update 2 alone
		if s.m.Aborts != 0 {
			t.Fatalf("%d aborts: the fixture is not conflict-free before any answer", s.m.Aborts)
		}
	})
}

// allParked reports whether every txn has started and is parked in the
// inbox.
func allParked(s *Scheduler) bool {
	if len(s.window) != len(s.ops) {
		return false
	}
	for _, tx := range s.window {
		if tx.park == nil {
			return false
		}
	}
	return true
}
