package chase_test

import (
	"strings"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/simuser"
)

func TestTraceRecordsProvenance(t *testing.T) {
	// Example 1.1: the generated review's trace entry names sigma3.
	st, _, e := travel(t)
	u := chase.NewUpdate(1, chase.Insert(tup("T", c("Niagara Falls"), c("ABC Tours"), c("Toronto"))))
	u.Traced = true
	runToCompletion(t, e, u, simuser.Silent())
	if len(u.Trace) != 2 {
		t.Fatalf("trace = %v", u.Trace)
	}
	if u.Trace[0].Cause != "initial operation" {
		t.Fatalf("first entry = %v", u.Trace[0])
	}
	if !strings.Contains(u.Trace[1].Cause, "sigma3") {
		t.Fatalf("repair provenance missing: %v", u.Trace[1])
	}
	if !strings.Contains(u.Trace[1].String(), "<-") {
		t.Fatalf("String = %q", u.Trace[1].String())
	}
	_ = st
}

func TestTraceFrontierOperations(t *testing.T) {
	// The §2.2 JFK scenario: the unification's null-replacements carry
	// the mapping name; the automatic inserts carry theirs.
	st, _, e := travel(t)
	u := chase.NewUpdate(1, chase.Insert(tup("S", c("JFK"), c("NYC"), c("Ithaca"))))
	u.Traced = true
	runToCompletion(t, e, u, simuser.UnifyFirst())
	var causes []string
	for _, entry := range u.Trace {
		causes = append(causes, entry.Cause)
	}
	joined := strings.Join(causes, "\n")
	if !strings.Contains(joined, "initial operation") {
		t.Fatalf("missing initial cause:\n%s", joined)
	}
	if !strings.Contains(joined, "forward repair of sigma2") {
		t.Fatalf("missing sigma2 repair:\n%s", joined)
	}
	if !strings.Contains(joined, "unification") && !strings.Contains(joined, "expansion") {
		t.Fatalf("missing frontier op provenance:\n%s", joined)
	}
	_ = st
}

func TestTraceResetOnRestart(t *testing.T) {
	_, _, e := travel(t)
	u := chase.NewUpdate(2, chase.Insert(tup("C", c("Boston"))))
	u.Traced = true
	runToCompletion(t, e, u, simuser.New(1))
	if len(u.Trace) == 0 {
		t.Fatal("no trace")
	}
	e.Store().Abort(2)
	u.Reset()
	if len(u.Trace) != 0 {
		t.Fatal("trace survived reset")
	}
}
