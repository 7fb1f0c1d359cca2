package core

import (
	"errors"
	"slices"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/simuser"
)

// traceLines renders a trace for comparison.
func traceLines(entries []chase.TraceEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.String()
	}
	return out
}

// TestApplyTracedTravelTrace pins ApplyTraced's provenance on the
// travel example (Figure 2): a forward repair, the §2.2 JFK
// unification and a backward deletion choice. Each returned trace must
// stay as it was while later updates, traced or not, run on the
// repository's renewed spare update.
func TestApplyTracedTravelTrace(t *testing.T) {
	r := travelRepo(t)
	steps := []struct {
		op   chase.Op
		user chase.User
		want []string
	}{
		{chase.Insert(tup("T", c("Niagara Falls"), c("ABC Tours"), c("Toronto"))), simuser.New(1), []string{
			"[u1#13] insert T(Niagara Falls, ABC Tours, Toronto)  <- initial operation",
			"[u1#14] insert R(ABC Tours, Niagara Falls, x1.1.0)  <- forward repair of sigma3",
		}},
		{chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca"))), simuser.UnifyFirst(), []string{
			"[u2#15] insert S(JFK, NYC, Ithaca)  <- initial operation",
			"[u2#16] insert C(NYC)  <- forward repair of sigma2",
			"[u2#17] insert S(x1.2.0, x1.2.1, NYC)  <- forward repair of sigma1",
			"[u2#18] modify S(x1.2.0, x1.2.1, NYC) => S(x1.2.0, Ithaca, NYC)  <- frontier unification for sigma2",
		}},
		{chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))), simuser.New(1), []string{
			"[u3#19] delete R(XYZ, Geneva Winery, Great!)  <- initial operation",
			"[u3#20] delete A(Geneva, Geneva Winery)  <- frontier deletion choice for sigma3",
		}},
	}
	var traces [][]chase.TraceEntry
	for _, s := range steps {
		_, entries, err := r.ApplyTraced(s.op, s.user)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceLines(entries); !slices.Equal(got, s.want) {
			t.Fatalf("trace of %s:\n got %q\nwant %q", s.op, got, s.want)
		}
		traces = append(traces, entries)
	}
	for _, city := range []string{"Boston", "Albany"} {
		if _, err := r.Apply(chase.Insert(tup("C", c(city))), simuser.New(2)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ApplyTraced(chase.Insert(tup("C", c(city+" Heights"))), simuser.New(3)); err != nil {
			t.Fatal(err)
		}
	}
	for i, entries := range traces {
		if got := traceLines(entries); !slices.Equal(got, steps[i].want) {
			t.Fatalf("trace of %s changed after later updates:\n got %q\nwant %q", steps[i].op, got, steps[i].want)
		}
	}
}

// traceLengths is a user that records len(u.Trace) at every frontier
// question before answering it as inner would.
func traceLengths(seen *[]int, inner chase.User) chase.User {
	return chase.UserFunc(func(u *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool) {
		*seen = append(*seen, len(u.Trace))
		return inner.Decide(u, g, opts, ctx)
	})
}

// untraced fails unless the frontier was asked something and the
// update had recorded no trace at every question.
func untraced(t *testing.T, path string, seen []int) {
	t.Helper()
	if len(seen) == 0 || slices.ContainsFunc(seen, func(n int) bool { return n != 0 }) {
		t.Fatalf("%s: trace lengths at the frontier %v, want all 0", path, seen)
	}
}

// TestApplyRecordsNoTrace: the update a user sees under Apply, a
// concurrent run or a bare chase.Runner has performed writes but
// recorded none; under ApplyTraced it has recorded them.
func TestApplyRecordsNoTrace(t *testing.T) {
	r := travelRepo(t)
	var seen []int
	user := traceLengths(&seen, simuser.UnifyFirst())
	jfk := chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca")))
	if _, err := r.Apply(jfk, user); err != nil {
		t.Fatal(err)
	}
	untraced(t, "Apply", seen)
	seen = nil
	if _, _, err := r.ApplyTraced(chase.Insert(tup("S", c("EWR"), c("Newark"), c("Ithaca"))), user); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || seen[0] == 0 {
		t.Fatalf("ApplyTraced: trace lengths at the frontier %v, want a recorded trace", seen)
	}

	seen = nil
	if _, err := travelRepo(t).RunConcurrent([]chase.Op{jfk}, cc.Config{User: user}); err != nil {
		t.Fatal(err)
	}
	untraced(t, "RunConcurrent", seen)

	seen = nil
	run := chase.Runner{Engine: chase.NewEngine(travelRepo(t).Store(), fixtures.TravelMappings()), User: user}
	if _, err := run.Run(chase.NewUpdate(1, jfk)); err != nil {
		t.Fatal(err)
	}
	untraced(t, "chase.Runner", seen)
}

// TestInboxResumeRecordsNoTrace: a parked update resumed by a deadline
// auto-answer records no trace either; nothing reads one there.
func TestInboxResumeRecordsNoTrace(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	r.SetInboxPolicy(inbox.Policy{Deadline: 1, OnDeadline: inbox.DeadlineAutoAnswer})
	r.SetFallbackUser(traceLengths(&seen, simuser.UnifyFirst()))
	id := mustPark(t, r)
	if err := r.InboxTick(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.InboxEntry(id); ok {
		t.Fatal("deadline auto-answer did not settle the entry")
	}
	untraced(t, "inbox resume", seen)
}

// TestParkedUpdateIsNeverRenewed: Apply renews one update across calls,
// but an update that parked is never handed out again, and the parked
// entry still resumes.
func TestParkedUpdateIsNeverRenewed(t *testing.T) {
	r, _, err := Open(durableDoc)
	if err != nil {
		t.Fatal(err)
	}
	var last *chase.Update
	recording := func(inner chase.User) chase.User {
		return chase.UserFunc(func(u *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, ctx string) (chase.Decision, bool) {
			last = u
			return inner.Decide(u, g, opts, ctx)
		})
	}
	insert := func(city string, user chase.User) (*chase.Update, error) {
		last = nil
		_, err := r.Apply(chase.Insert(model.NewTuple("C", model.Const(city))), recording(user))
		if last == nil {
			t.Fatalf("inserting %s asked no frontier question", city)
		}
		return last, err
	}
	first, err := insert("Albany", simuser.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := insert("Utica", simuser.New(1)); err != nil || again != first {
		t.Fatalf("second Apply ran on %p (err %v), want the renewed %p", again, err, first)
	}
	parked, err := insert("Boston", simuser.Silent())
	var pe *ParkedError
	if !errors.As(err, &pe) {
		t.Fatalf("Apply with a silent user returned %v, want *ParkedError", err)
	}
	if parked != first {
		t.Fatalf("the parking Apply ran on %p, want the spare %p", parked, first)
	}
	for _, city := range []string{"Geneva", "Rome"} {
		u, err := insert(city, simuser.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if u == parked {
			t.Fatalf("inserting %s renewed the parked update", city)
		}
	}
	answerLikeUnifyFirst(t, r, pe.ID)
}
