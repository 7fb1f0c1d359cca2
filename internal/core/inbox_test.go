package core

import (
	"errors"
	"slices"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/simuser"
	"youtopia/internal/vfs"
	"youtopia/internal/wal"
)

// The tests in this file pin the decision-inbox contract end to end:
// a blocked update parks instead of failing, the parked chase resumes
// from recorded answers — across process restarts, through both crash
// windows (before the first answer, and between a durable answer and
// its resume) — and the resumed execution commits an instance
// byte-identical to the same update answered inline.

// parkOp blocks on durableDoc: inserting a new city violates sigma1
// (every city needs a serving station), whose repair needs a frontier
// decision, and the sigma1/sigma2 cycle keeps asking until a
// unification is chosen.
func parkOp() chase.Op {
	return chase.Insert(model.NewTuple("C", model.Const("Boston")))
}

// unifyFirstOption mirrors simuser.UnifyFirst over an inbox entry's
// option enumeration: the first unification when one exists, otherwise
// the first expansion or deletion.
func unifyFirstOption(t *testing.T, e inbox.Entry) int {
	t.Helper()
	for i, k := range e.OptionKinds {
		if k == chase.DecideUnify {
			return i
		}
	}
	for i, k := range e.OptionKinds {
		if k == chase.DecideExpand || k == chase.DecideDelete {
			return i
		}
	}
	t.Fatalf("entry %d has no answerable option: %v", e.ID, e.OptionKinds)
	return 0
}

// answerLikeUnifyFirst drives one parked entry to resolution through
// the public inbox API, choosing exactly what simuser.UnifyFirst would
// choose inline.
func answerLikeUnifyFirst(t *testing.T, r *Repository, id int64) {
	t.Helper()
	for i := 0; i < 100; i++ {
		e, ok := r.InboxEntry(id)
		if !ok {
			t.Fatalf("entry %d vanished before resolving", id)
		}
		resolved, err := r.AnswerInbox(id, unifyFirstOption(t, e))
		if err != nil {
			t.Fatal(err)
		}
		if resolved {
			if _, ok := r.InboxEntry(id); ok {
				t.Fatalf("entry %d resolved but still listed", id)
			}
			return
		}
	}
	t.Fatalf("entry %d did not resolve within 100 answers", id)
}

// inlineTwinDump applies parkOp answered inline by UnifyFirst on a
// fresh repository of the same document and returns the resulting
// instance — the oracle the parked executions must reproduce
// byte-identically.
func inlineTwinDump(t *testing.T, opts Options) string {
	t.Helper()
	r, _, err := OpenWithOptions(durableDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Apply(parkOp(), simuser.UnifyFirst()); err != nil {
		t.Fatal(err)
	}
	return r.Dump()
}

func mustPark(t *testing.T, r *Repository) int64 {
	t.Helper()
	_, err := r.Apply(parkOp(), simuser.Silent())
	var parked *ParkedError
	if !errors.As(err, &parked) {
		t.Fatalf("Apply with a silent user returned %v, want *ParkedError", err)
	}
	return parked.ID
}

func TestApplyParksAndAnswersInMemory(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Dump()
	_, err = r.Apply(parkOp(), simuser.Silent())
	var parked *ParkedError
	if !errors.As(err, &parked) {
		t.Fatalf("Apply returned %v, want *ParkedError", err)
	}
	if !errors.Is(err, ErrParked) {
		t.Fatal("parked error does not match ErrParked")
	}
	if !errors.Is(err, chase.ErrNoDecision) {
		t.Fatal("parked error does not match chase.ErrNoDecision (the historical contract)")
	}
	if got := r.Dump(); got != before {
		t.Fatalf("parked update left writes behind:\n got:\n%s\nwant:\n%s", got, before)
	}

	entries := r.Inbox()
	if len(entries) != 1 || entries[0].ID != parked.ID {
		t.Fatalf("inbox = %+v, want exactly entry %d", entries, parked.ID)
	}
	e := entries[0]
	if e.Question == "" || len(e.Options) == 0 || len(e.Options) != len(e.OptionKinds) {
		t.Fatalf("unanswerable entry: %+v", e)
	}
	if e.Status != inbox.Pending {
		t.Fatalf("status = %v, want pending", e.Status)
	}

	if err := r.ClaimInbox(parked.ID, "ada"); err != nil {
		t.Fatal(err)
	}
	if e, _ := r.InboxEntry(parked.ID); e.Status != inbox.Claimed || e.Claimant != "ada" {
		t.Fatalf("claim not recorded: %+v", e)
	}

	answerLikeUnifyFirst(t, r, parked.ID)
	if got, want := r.Dump(), inlineTwinDump(t, Options{}); got != want {
		t.Fatalf("parked execution differs from inline:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestApplyNilUserFailsFast(t *testing.T) {
	// No user configured means no one to retry: the historical
	// fail-fast contract, not a park.
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Dump()
	_, err = r.Apply(parkOp(), nil)
	if !errors.Is(err, chase.ErrNoDecision) {
		t.Fatalf("Apply with nil user returned %v, want chase.ErrNoDecision", err)
	}
	if errors.Is(err, ErrParked) {
		t.Fatal("nil-user failure claims to be parked")
	}
	if len(r.Inbox()) != 0 {
		t.Fatalf("nil-user failure parked an entry: %+v", r.Inbox())
	}
	if got := r.Dump(); got != before {
		t.Fatal("failed update left writes behind")
	}
}

func TestAnswerInboxRejectsBadInput(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	id := mustPark(t, r)
	if _, err := r.AnswerInbox(id+99, 0); err == nil {
		t.Fatal("answering a nonexistent entry succeeded")
	}
	e, _ := r.InboxEntry(id)
	if _, err := r.AnswerInbox(id, len(e.Options)); err == nil {
		t.Fatal("out-of-range option accepted")
	}
	if _, err := r.AnswerInbox(id, -1); err == nil {
		t.Fatal("negative option accepted")
	}
}

// TestParkSurvivesRestart is the kill-between-park-and-answer window:
// the process dies after the park record lands and before any answer.
// Reopening the directory must restore the entry — with its question
// regenerated against the recovered instance — and answering it must
// complete the update byte-identically to an inline execution.
func TestParkSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id := mustPark(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	entries := r2.Inbox()
	if len(entries) != 1 || entries[0].ID != id {
		t.Fatalf("recovered inbox = %+v, want entry %d", entries, id)
	}
	if entries[0].Question == "" || len(entries[0].Options) == 0 {
		t.Fatalf("recovered entry has no regenerated question: %+v", entries[0])
	}
	answerLikeUnifyFirst(t, r2, id)
	got := r2.Dump()
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if want := inlineTwinDump(t, Options{DataDir: t.TempDir()}); got != want {
		t.Fatalf("resumed execution differs from inline:\n got:\n%s\nwant:\n%s", got, want)
	}

	// A further restart finds the commit durable and the inbox empty.
	r3, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if n := len(r3.Inbox()); n != 0 {
		t.Fatalf("resolved entry reappeared after restart: %d open", n)
	}
	if r3.Dump() != got {
		t.Fatal("resumed commit lost across restart")
	}
}

// TestCrashBetweenAnswerAndResume is the second crash window: the
// answer record is durable but the process dies before the resumed
// chase runs. Recovery must consume the recorded answer on its own —
// resuming the update as far as the answers carry it.
func TestCrashBetweenAnswerAndResume(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	schema := r.Schema()
	id := mustPark(t, r)
	e, ok := r.InboxEntry(id)
	if !ok {
		t.Fatal("parked entry missing")
	}
	opt := unifyFirstOption(t, e)
	ctx := e.Context
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Inject the answer the way AnswerInbox would have logged it, then
	// "crash" before any resume record exists.
	m, _, err := wal.Open(dir, schema, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAnswer(id, ctx, opt); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	r2, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery replayed the answer; the chase either completed or
	// re-parked on the next question. Finish it through the API.
	if _, ok := r2.InboxEntry(id); ok {
		answerLikeUnifyFirst(t, r2, id)
	}
	got := r2.Dump()
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if want := inlineTwinDump(t, Options{DataDir: t.TempDir()}); got != want {
		t.Fatalf("answer-replay execution differs from inline:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestCancelInboxDurable(t *testing.T) {
	dir := t.TempDir()
	r, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	before := r.Dump()
	id := mustPark(t, r)
	if err := r.CancelInbox(id); err != nil {
		t.Fatal(err)
	}
	if len(r.Inbox()) != 0 {
		t.Fatal("cancelled entry still listed")
	}
	if err := r.CancelInbox(id); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if got := r.Dump(); got != before {
		t.Fatal("cancelled update changed the instance")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if n := len(r2.Inbox()); n != 0 {
		t.Fatalf("cancelled entry resurrected after restart: %d open", n)
	}
}

func TestInboxDeadlineAutoAnswer(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInboxPolicy(inbox.Policy{Deadline: 3, OnDeadline: inbox.DeadlineAutoAnswer})
	r.SetFallbackUser(simuser.UnifyFirst())
	id := mustPark(t, r)

	if err := r.InboxTick(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.InboxEntry(id); !ok {
		t.Fatal("entry settled before its deadline")
	}
	if err := r.InboxTick(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.InboxEntry(id); ok {
		t.Fatal("deadline auto-answer did not settle the entry")
	}
	if got, want := r.Dump(), inlineTwinDump(t, Options{}); got != want {
		t.Fatalf("auto-answered execution differs from inline:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestInboxDeadlineAbort(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Dump()
	r.SetInboxPolicy(inbox.Policy{Deadline: 2, OnDeadline: inbox.DeadlineAbort})
	id := mustPark(t, r)
	if err := r.InboxTick(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.InboxEntry(id); ok {
		t.Fatal("deadline abort left the entry parked")
	}
	if got := r.Dump(); got != before {
		t.Fatal("aborted parked update changed the instance")
	}
}

func TestInboxEscalationRaisesPriority(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInboxPolicy(inbox.Policy{EscalateEvery: 2})
	id := mustPark(t, r)
	if err := r.InboxTick(6); err != nil {
		t.Fatal(err)
	}
	e, ok := r.InboxEntry(id)
	if !ok {
		t.Fatal("entry vanished under escalation")
	}
	if e.Priority != 3 {
		t.Fatalf("priority = %d after 6 ticks at EscalateEvery 2, want 3", e.Priority)
	}
}

// scriptedUser answers the i-th question of an update with option
// script[i] and has no answer once the script runs out.
func scriptedUser(script ...int) chase.User {
	asked := 0
	return chase.UserFunc(func(_ *chase.Update, _ *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
		if asked >= len(script) {
			return chase.Decision{}, false
		}
		asked++
		return opts[script[asked-1]], true
	})
}

// TestResumeReplaysAnswersByContext pins inbox.Replay's rule on the
// repository's resume. The update parks on its second question (the
// first was answered live, so no answer is recorded for it), and the
// curator answers that question with its last option. The resume then
// meets the first question again: the recorded answer's context is not
// open, so the entry is requeued with the first question and the
// answer stays unused. Answering the first question resolves the
// update without asking the second again — unless, in between, an
// update deleted a unification target, so that the recorded option is
// out of range: it is then dropped as stale and the second question is
// asked once more.
func TestResumeReplaysAnswersByContext(t *testing.T) {
	doc := durableDoc + `
tuple C("Albany")
tuple S("ALB", "Albany", "Albany")
`
	albany := chase.Delete(model.NewTuple("S", model.Const("ALB"), model.Const("Albany"), model.Const("Albany")))
	for _, stale := range []bool{false, true} {
		r, _, err := Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Apply(parkOp(), scriptedUser(0))
		var parked *ParkedError
		if !errors.As(err, &parked) {
			t.Fatalf("Apply returned %v, want *ParkedError", err)
		}
		id := parked.ID
		second, _ := r.InboxEntry(id)
		last := len(second.Options) - 1
		if resolved, err := r.AnswerInbox(id, last); err != nil || resolved {
			t.Fatalf("answer to the second question: resolved=%v err=%v, want a requeue", resolved, err)
		}
		first, _ := r.InboxEntry(id)
		if first.Context == second.Context || first.Status != inbox.Pending || len(first.Answers) != 1 {
			t.Fatalf("after the first resume the entry shows %q (status %v, %d answers), want the first question pending",
				first.Context, first.Status, len(first.Answers))
		}
		if stale {
			if _, err := r.Apply(albany, nil); err != nil {
				t.Fatal(err)
			}
		}
		resolved, err := r.AnswerInbox(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, last}
		if stale {
			if resolved {
				t.Fatal("an out-of-range recorded option was applied")
			}
			again, _ := r.InboxEntry(id)
			if again.Context != second.Context || len(again.Options) != last {
				t.Fatalf("stale answer: entry asks %q with %d options, want the second question with %d",
					again.Context, len(again.Options), last)
			}
			if resolved, err = r.AnswerInbox(id, 1); err != nil {
				t.Fatal(err)
			}
			want = []int{0, 1}
		}
		if !resolved {
			t.Fatalf("stale=%v: the recorded answer to the second question was not reused", stale)
		}

		twin, _, err := Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		if stale {
			if _, err := twin.Apply(albany, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := twin.Apply(parkOp(), scriptedUser(want...)); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Dump(), twin.Dump(); got != want {
			t.Fatalf("stale=%v: resumed execution differs from inline:\n got:\n%s\nwant:\n%s", stale, got, want)
		}
	}
}

// TestFallbackAnswerJoinsEntryHistory: a deadline auto-answer's
// fallback answers the first question and has none for the second, so
// the resume parks the update again. The fallback's answer must be in
// the entry's history just as the log holds it — a reopen recovers the
// same answers — and answering the second question must then commit
// without asking the first again.
func TestFallbackAnswerJoinsEntryHistory(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		dir := t.TempDir()
		r, _, err := OpenWithOptions(durableDoc, Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		r.SetInboxPolicy(inbox.Policy{Deadline: 1, OnDeadline: inbox.DeadlineAutoAnswer})
		r.SetFallbackUser(scriptedUser(0))
		id := mustPark(t, r)
		first, _ := r.InboxEntry(id)
		if err := r.InboxTick(1); err != nil {
			t.Fatal(err)
		}
		second, ok := r.InboxEntry(id)
		if !ok || second.Status != inbox.Pending || second.Context == first.Context {
			t.Fatalf("reopen=%v: after the auto-answer the entry is %+v, want the second question pending", reopen, second)
		}
		want := []inbox.Answer{{Context: first.Context, Option: 0}}
		if !slices.Equal(second.Answers, want) {
			t.Fatalf("reopen=%v: entry answers %v, want the fallback's %v", reopen, second.Answers, want)
		}
		if reopen {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if r, _, err = OpenWithOptions(durableDoc, Options{DataDir: dir}); err != nil {
				t.Fatal(err)
			}
			if got, _ := r.InboxEntry(id); !slices.Equal(got.Answers, second.Answers) {
				t.Fatalf("reopen recovers answers %v, the live entry held %v", got.Answers, second.Answers)
			}
		}
		last := len(second.Options) - 1
		resolved, err := r.AnswerInbox(id, last)
		if err != nil || !resolved {
			t.Fatalf("reopen=%v: answering the second question: resolved=%v err=%v, want a commit", reopen, resolved, err)
		}
		got := r.Dump()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		twin, _, err := Open(durableDoc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Apply(parkOp(), scriptedUser(0, last)); err != nil {
			t.Fatal(err)
		}
		if want := twin.Dump(); got != want {
			t.Fatalf("reopen=%v: resumed execution differs from inline:\n got:\n%s\nwant:\n%s", reopen, got, want)
		}
	}
}

// TestResumeOnDegradedLogIsRejected: a deadline auto-answer on a log
// that degraded on ENOSPC is rejected before the resume takes an update
// number or runs a chase, and the entry stays parked.
func TestResumeOnDegradedLogIsRejected(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS, 1)
	r, _, err := OpenWithOptions(durableDoc, Options{DataDir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetInboxPolicy(inbox.Policy{Deadline: 1, OnDeadline: inbox.DeadlineAutoAnswer})
	r.SetFallbackUser(simuser.UnifyFirst())
	id := mustPark(t, r)

	ffs.Script(vfs.Rule{Op: vfs.OpWrite, Path: "wal-", Err: vfs.NoSpace()})
	ffs.SetFreeBytes(0)
	insert := chase.Insert(model.NewTuple("S", model.Const("ITH"), model.Const("Ithaca"), model.Const("Ithaca")))
	if _, err := r.Apply(insert, nil); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("commit on a full disk returned %v, want ErrReadOnly", err)
	}
	if h := r.Health(); h.State != wal.StateDegraded {
		t.Fatalf("health = %+v, want degraded", h)
	}

	next := r.nextUpdate
	if err := r.InboxTick(1); !errors.Is(err, wal.ErrReadOnly) {
		t.Fatalf("auto-answer on a degraded log returned %v, want ErrReadOnly", err)
	}
	if r.nextUpdate != next {
		t.Fatalf("the rejected resume took update numbers %d..%d", next, r.nextUpdate-1)
	}
	if _, ok := r.InboxEntry(id); !ok {
		t.Fatal("the rejected resume dropped the entry")
	}
}
