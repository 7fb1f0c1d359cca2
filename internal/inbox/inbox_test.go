package inbox

import (
	"testing"
)

func TestLifecycle(t *testing.T) {
	b := NewBox()
	id1 := b.Park(Entry{Question: "q1", Options: []string{"a", "b"}})
	id2 := b.Park(Entry{Question: "q2", Options: []string{"c"}, Priority: 5})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("minted IDs = %d, %d", id1, id2)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}

	// Priority orders the listing, ties by ascending ID.
	ls := b.List()
	if ls[0].ID != id2 || ls[1].ID != id1 {
		t.Fatalf("list order = %d, %d; want priority-first", ls[0].ID, ls[1].ID)
	}

	if err := b.Claim(id1, "ada"); err != nil {
		t.Fatal(err)
	}
	e, ok := b.Get(id1)
	if !ok || e.Status != Claimed || e.Claimant != "ada" {
		t.Fatalf("claim not recorded: %+v", e)
	}

	if err := b.Answer(id1, Answer{Context: "ctx", Option: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Answer(id1, Answer{Context: "ctx", Option: 0}); err == nil {
		t.Fatal("double answer accepted while resuming")
	}
	if err := b.Claim(id1, "eve"); err == nil {
		t.Fatal("claim of an answered entry accepted")
	}
	if e, _ := b.Get(id1); e.Status != Answered || len(e.Answers) != 1 {
		t.Fatalf("answer not recorded: %+v", e)
	}

	// Requeue returns the entry to Pending with a fresh question but
	// keeps the answer history (a concurrent answer must not be lost).
	if err := b.Requeue(id1, Entry{Question: "q1'", Options: []string{"x"}, Context: "ctx2", Positive: true, FrontierOps: 3}); err != nil {
		t.Fatal(err)
	}
	e, _ = b.Get(id1)
	if e.Status != Pending || e.Claimant != "" || e.Question != "q1'" || e.Context != "ctx2" {
		t.Fatalf("requeue state: %+v", e)
	}
	if len(e.Answers) != 1 {
		t.Fatalf("requeue dropped the answer history: %+v", e.Answers)
	}

	b.Resolve(id1)
	b.Abort(id2)
	if b.Len() != 0 {
		t.Fatalf("Len = %d after resolve+abort", b.Len())
	}
	parked, answered, resolved, aborted, _ := b.Counters()
	if parked != 2 || answered != 1 || resolved != 1 || aborted != 1 {
		t.Fatalf("counters = %d %d %d %d", parked, answered, resolved, aborted)
	}
	if got := b.ResumeHistogram().Count(); got != 1 {
		t.Fatalf("resume histogram count = %d, want 1", got)
	}

	// Explicit (durable) IDs are kept and advance the minting floor.
	if id := b.Park(Entry{ID: 7}); id != 7 {
		t.Fatalf("explicit ID not kept: %d", id)
	}
	if id := b.Park(Entry{}); id != 8 {
		t.Fatalf("minting floor not advanced: %d", id)
	}
}

func TestTickPolicies(t *testing.T) {
	b := NewBox()
	esc := b.Park(Entry{Policy: Policy{EscalateEvery: 2}})
	auto := b.Park(Entry{Policy: Policy{Deadline: 3, OnDeadline: DeadlineAutoAnswer}})
	abrt := b.Park(Entry{Policy: Policy{Deadline: 5, OnDeadline: DeadlineAbort}})
	none := b.Park(Entry{Policy: Policy{Deadline: 1}}) // DeadlineNone: waits forever

	due := b.Tick(2)
	if len(due) != 1 || due[0].ID != esc || due[0].Kind != DueEscalate {
		t.Fatalf("tick(2) due = %+v", due)
	}
	if e, _ := b.Get(esc); e.Priority != 1 {
		t.Fatalf("escalation not applied: %+v", e)
	}

	due = b.Tick(1) // now = 3: auto's deadline
	var kinds []DueKind
	for _, d := range due {
		kinds = append(kinds, d.Kind)
	}
	if len(due) != 1 || due[0].ID != auto || due[0].Kind != DueAutoAnswer {
		t.Fatalf("tick(3) due = %+v (%v)", due, kinds)
	}
	// Deadlines fire once per pending spell.
	for _, d := range b.Tick(1) {
		if d.ID == auto && d.Kind == DueAutoAnswer {
			t.Fatal("deadline fired twice without a requeue")
		}
	}

	due = b.Tick(1) // now = 5: abrt's deadline, esc escalates at 4 already seen
	found := false
	for _, d := range due {
		if d.ID == abrt && d.Kind == DueAbort {
			found = true
		}
		if d.ID == none {
			t.Fatalf("DeadlineNone entry surfaced: %+v", d)
		}
	}
	if !found {
		t.Fatalf("abort deadline missing from %+v", due)
	}

	// An answered entry is exempt from policies until requeued; the
	// requeue starts a fresh pending spell with a fresh deadline.
	if err := b.Answer(auto, Answer{Context: "c", Option: 0}); err != nil {
		t.Fatal(err)
	}
	if ds := b.Tick(10); len(ds) != 0 {
		for _, d := range ds {
			if d.ID == auto {
				t.Fatalf("answered entry got policy action %+v", d)
			}
		}
	}
	if err := b.Requeue(auto, Entry{Question: "again", Options: []string{"o"}, Context: "c2", Positive: true, FrontierOps: 1}); err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, d := range b.Tick(3) {
		if d.ID == auto && d.Kind == DueAutoAnswer {
			fired = true
		}
	}
	if !fired {
		t.Fatal("requeued entry's deadline never re-armed")
	}
}
