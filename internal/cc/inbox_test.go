package cc_test

import (
	"fmt"
	"testing"
	"time"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/inbox"
	"youtopia/internal/serial"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/workload"
)

// genealogyFixture returns the cyclic §2.2 universe preloaded with a
// unification target, so every inserted person raises a run of
// frontier questions — the workload that exercises parking.
func genealogyFixture(t *testing.T) (*storage.Store, *tgd.Set) {
	t.Helper()
	_, set, st, err := fixtures.Genealogy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tup("Person", c("Mary"))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(tup("Father", c("Mary"), c("Mary"))); err != nil {
		t.Fatal(err)
	}
	return st, set
}

func genealogyOps() []chase.Op {
	return []chase.Op{
		chase.Insert(tup("Person", c("John"))),
		chase.Insert(tup("Person", c("Sue"))),
		chase.Insert(tup("Person", c("Ravi"))),
	}
}

const inboxTestSeed = 11

func inboxTestUser() *simuser.User {
	u := simuser.New(inboxTestSeed)
	u.ForceUnifyAfter = 4
	return u
}

// runInboxMode executes the genealogy workload with blocked updates
// parked in a decision inbox and answered by the asynchronous
// answerer; runInlineMode answers the same questions inline through
// the legacy polling path. Both make identical choices
// (simuser.ChooseOption), so the final instances must be equivalent.
func runInboxMode(t *testing.T, workers int) (cc.Metrics, *inbox.Box, *storage.Store) {
	t.Helper()
	st, set := genealogyFixture(t)
	box := inbox.NewBox()
	cfg := cc.Config{
		Tracker:            cc.Coarse{},
		User:               inboxTestUser(),
		Inbox:              box,
		Workers:            workers,
		MaxAbortsPerUpdate: 10000,
	}
	ans := &workload.Answerer{Box: box, Seed: inboxTestSeed, ForceUnifyAfter: 4}
	ans.Start()
	m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps())
	ans.Stop()
	if err != nil {
		t.Fatal(err)
	}
	return m, box, st
}

func runInlineMode(t *testing.T, latency int) (cc.Metrics, *storage.Store) {
	t.Helper()
	st, set := genealogyFixture(t)
	user := inboxTestUser()
	user.Latency = latency
	cfg := cc.Config{Tracker: cc.Coarse{}, User: user, MaxAbortsPerUpdate: 10000}
	m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps())
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// TestInboxModeZeroRepolls pins the bounded-polls property: a txn
// waiting in the inbox costs zero chase.User.Decide calls — every
// decision arrives as a recorded answer — while the legacy path
// with a slow user repolls every scheduler round.
func TestInboxModeZeroRepolls(t *testing.T) {
	m, box, st := runInboxMode(t, 0)
	if m.UserPolls != 0 {
		t.Fatalf("inbox mode made %d live user polls, want 0 (blocked txns must wait in the inbox)", m.UserPolls)
	}
	parked, answered, resolved, _, _ := box.Counters()
	if parked == 0 || answered == 0 || resolved == 0 {
		t.Fatalf("workload never exercised the inbox: parked=%d answered=%d resolved=%d",
			parked, answered, resolved)
	}
	if box.Len() != 0 {
		t.Fatalf("%d entries left in the inbox after the run", box.Len())
	}

	mi, sti := runInlineMode(t, 3)
	if mi.UserPolls == 0 {
		t.Fatal("legacy mode with a slow user reported zero polls — the metric is not counting")
	}
	if mi.UserPolls <= int(answered) {
		t.Fatalf("legacy polls (%d) should exceed the decisions taken (%d): slow users are repolled",
			mi.UserPolls, answered)
	}

	// Same choices either way: the final instances are the same.
	if got, want := st.Dump(1<<30), sti.Dump(1<<30); got != want {
		t.Fatalf("inbox-mode instance differs from inline:\n got:\n%s\nwant:\n%s", got, want)
	}
	_ = m
}

func TestParallelInboxZeroRepolls(t *testing.T) {
	m, box, st := runInboxMode(t, 4)
	if m.UserPolls != 0 {
		t.Fatalf("width-4 inbox mode made %d live user polls, want 0", m.UserPolls)
	}
	parked, answered, resolved, _, _ := box.Counters()
	if parked == 0 || answered == 0 || resolved == 0 {
		t.Fatalf("workload never exercised the inbox: parked=%d answered=%d resolved=%d",
			parked, answered, resolved)
	}
	if box.Len() != 0 {
		t.Fatalf("%d entries left in the inbox after the run", box.Len())
	}

	// Serializability holds through the parking indirection.
	st2, set2 := genealogyFixture(t)
	if _, err := serial.Execute(st2, set2, genealogyOps(), inboxTestUser()); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Dump(1<<30), st2.Dump(1<<30); got != want {
		t.Fatalf("width-4 inbox instance not serializable:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSchedulerDeadlineAutoAnswer: no answerer at all — parked txns
// are settled by the deadline policy consulting cfg.User, so the run
// completes with exactly as many polls as decisions taken.
func TestSchedulerDeadlineAutoAnswer(t *testing.T) {
	st, set := genealogyFixture(t)
	box := inbox.NewBox()
	cfg := cc.Config{
		Tracker:            cc.Coarse{},
		User:               inboxTestUser(),
		Inbox:              box,
		InboxPolicy:        inbox.Policy{Deadline: 2, OnDeadline: inbox.DeadlineAutoAnswer},
		MaxAbortsPerUpdate: 10000,
	}
	m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled != 0 {
		t.Fatalf("auto-answer policy cancelled %d updates", m.Cancelled)
	}
	if m.UserPolls == 0 {
		t.Fatal("deadline auto-answers never consulted the fallback user")
	}
	parked, _, resolved, _, _ := box.Counters()
	if parked == 0 || resolved != parked {
		t.Fatalf("parked=%d resolved=%d, want every parked entry resolved by the deadline", parked, resolved)
	}
}

func TestParallelDeadlineAutoAnswer(t *testing.T) {
	st, set := genealogyFixture(t)
	box := inbox.NewBox()
	cfg := cc.Config{
		Tracker:            cc.Coarse{},
		User:               inboxTestUser(),
		Inbox:              box,
		InboxPolicy:        inbox.Policy{Deadline: 2, OnDeadline: inbox.DeadlineAutoAnswer},
		Workers:            2,
		MaxAbortsPerUpdate: 10000,
	}
	m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled != 0 {
		t.Fatalf("auto-answer policy cancelled %d updates", m.Cancelled)
	}
	if m.UserPolls == 0 {
		t.Fatal("deadline auto-answers never consulted the fallback user")
	}
}

// TestSchedulerDeadlineAbort: absent curators and an abort policy —
// blocked updates are cancelled at the deadline instead of wedging the
// scheduler, and updates with no frontier questions still commit.
func TestSchedulerDeadlineAbort(t *testing.T) {
	st, set := genealogyFixture(t)
	box := inbox.NewBox()
	cfg := cc.Config{
		Tracker:            cc.Coarse{},
		User:               inboxTestUser(),
		Inbox:              box,
		InboxPolicy:        inbox.Policy{Deadline: 1, OnDeadline: inbox.DeadlineAbort},
		MaxAbortsPerUpdate: 10000,
	}
	m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled == 0 {
		t.Fatal("no parked update was cancelled by the abort deadline")
	}
	if m.Cancelled > m.Submitted {
		t.Fatalf("cancelled %d of %d submitted", m.Cancelled, m.Submitted)
	}
	if box.Len() != 0 {
		t.Fatalf("%d entries left after abort deadlines", box.Len())
	}
}

// TestSchedulerCancelsAbortedEntry: a curator aborting a parked update's
// inbox entry cancels the update for good, and the run still completes.
func TestSchedulerCancelsAbortedEntry(t *testing.T) {
	st, set := genealogyFixture(t)
	box := inbox.NewBox()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
			for _, e := range box.List() {
				box.Abort(e.ID)
			}
		}
	}()
	m, err := cc.NewScheduler(st, set, cc.Config{Tracker: cc.Coarse{}, Inbox: box}).Run(genealogyOps())
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled == 0 {
		t.Fatal("no update was cancelled after its entry was aborted")
	}
	if box.Len() != 0 {
		t.Fatalf("%d entries left after the run", box.Len())
	}
}

func TestParallelDeadlineAbort(t *testing.T) {
	st, set := genealogyFixture(t)
	box := inbox.NewBox()
	cfg := cc.Config{
		Tracker:            cc.Coarse{},
		User:               inboxTestUser(),
		Inbox:              box,
		InboxPolicy:        inbox.Policy{Deadline: 1, OnDeadline: inbox.DeadlineAbort},
		Workers:            2,
		MaxAbortsPerUpdate: 10000,
	}
	m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled == 0 {
		t.Fatal("no parked update was cancelled by the abort deadline")
	}
	if m.Cancelled > m.Submitted {
		t.Fatalf("cancelled %d of %d submitted", m.Cancelled, m.Submitted)
	}
	if box.Len() != 0 {
		t.Fatalf("%d entries left after abort deadlines", box.Len())
	}
}

// TestUnmatchedAnswerKeepsTxnParked: the first answer on every entry
// names a context that is not open. Under inbox.Replay's rule it stays
// unused, so it must not wake its transaction for good: a round serves
// the transaction again only once a poll can move it
// (TestParkedTxnPollable pins that rule). No live user is polled, and
// the run ends on the matching answers, sent 50 ms later, with the
// serial instance.
func TestUnmatchedAnswerKeepsTxnParked(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st, set := genealogyFixture(t)
			box := inbox.NewBox()
			cfg := cc.Config{
				Tracker:            cc.Coarse{},
				User:               inboxTestUser(),
				Inbox:              box,
				Workers:            workers,
				MaxAbortsPerUpdate: 10000,
			}
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				unmatched := map[int64]time.Time{}
				for {
					select {
					case <-stop:
						return
					case <-time.After(200 * time.Microsecond):
					}
					for _, e := range box.List() {
						if e.Status == inbox.Answered {
							continue
						}
						at, ok := unmatched[e.ID]
						if !ok {
							unmatched[e.ID] = time.Now()
							_ = box.Answer(e.ID, inbox.Answer{Context: "no such context", Option: 0})
							continue
						}
						if time.Since(at) < 50*time.Millisecond {
							continue
						}
						opt := simuser.ChooseOption(inboxTestSeed, e.Update, e.FrontierOps, e.Context,
							e.OptionKinds, e.FrontierOps, 4, e.Positive)
						_ = box.Answer(e.ID, inbox.Answer{Context: e.Context, Option: opt})
					}
				}
			}()
			m, err := cc.NewScheduler(st, set, cfg).Run(genealogyOps()[:1])
			close(stop)
			<-done
			if err != nil {
				t.Fatal(err)
			}
			if m.UserPolls != 0 {
				t.Fatalf("%d live user polls, want 0", m.UserPolls)
			}
			if box.Len() != 0 {
				t.Fatalf("%d entries left after the run", box.Len())
			}
			st2, set2 := genealogyFixture(t)
			if _, err := serial.Execute(st2, set2, genealogyOps()[:1], inboxTestUser()); err != nil {
				t.Fatal(err)
			}
			if got, want := st.Dump(1<<30), st2.Dump(1<<30); got != want {
				t.Fatalf("instance differs from the serial run:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
