package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
)

func controlSchema() *model.Schema {
	schema := model.NewSchema()
	schema.MustAddRelation("C", "a")
	schema.MustAddRelation("R", "a", "b")
	return schema
}

func sameOp(a, b chase.Op) bool {
	if a.Kind != b.Kind || a.ID != b.ID || a.Null != b.Null || a.With != b.With {
		return false
	}
	if a.Tuple.Rel != b.Tuple.Rel || len(a.Tuple.Vals) != len(b.Tuple.Vals) {
		return false
	}
	for i := range a.Tuple.Vals {
		if a.Tuple.Vals[i] != b.Tuple.Vals[i] {
			return false
		}
	}
	return true
}

func TestControlRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := controlSchema()
	m, _, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := []chase.Op{
		chase.Insert(tup("C", c("x"))),
		chase.Delete(tup("R", c("a"), c("b"))),
		chase.ReplaceNull(model.Null(5), c("z")),
	}
	var ids []int64
	for _, op := range ops {
		id, err := m.AppendPark(op)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("park IDs = %v, want 1..3", ids)
	}
	if err := m.AppendAnswer(ids[0], "ctx-one", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAnswer(ids[0], "ctx-two", 0); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAnswer(99, "ctx", 0); err == nil {
		t.Fatal("answer for an unknown park ID accepted")
	}
	if err := m.AppendResume(ids[1], true); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	parked := m2.Parked()
	if len(parked) != 2 || parked[0].ID != 1 || parked[1].ID != 3 {
		t.Fatalf("recovered parked set = %+v, want IDs 1 and 3", parked)
	}
	if !sameOp(parked[0].Op, ops[0]) || !sameOp(parked[1].Op, ops[2]) {
		t.Fatalf("recovered ops differ: %+v", parked)
	}
	want := []inbox.Answer{{Context: "ctx-one", Option: 2}, {Context: "ctx-two", Option: 0}}
	if len(parked[0].Answers) != len(want) {
		t.Fatalf("answers = %+v, want %+v", parked[0].Answers, want)
	}
	for i, a := range parked[0].Answers {
		if a != want[i] {
			t.Fatalf("answer %d = %+v, want %+v", i, a, want[i])
		}
	}
	// Park IDs are never reused, even for resolved entries.
	id, err := m2.AppendPark(ops[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("next park ID = %d, want 4", id)
	}
}

// TestCheckpointCarriesParkedSet: a checkpoint must absorb the live
// parked entries (with their answers so far) and replay must layer
// post-checkpoint control frames on top without duplicating what the
// checkpoint already holds.
func TestCheckpointCarriesParkedSet(t *testing.T) {
	dir := t.TempDir()
	schema := controlSchema()
	m, st, err := Open(dir, schema, Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	resolvedID, err := m.AppendPark(chase.Insert(tup("C", c("gone"))))
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.AppendPark(chase.Insert(tup("C", c("x"))))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAnswer(id, "before-ckpt", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendResume(resolvedID, false); err != nil {
		t.Fatal(err)
	}
	// A committed batch so the checkpoint has store state too.
	if _, _, _, err := st.Insert(1, tup("R", c("p"), c("q"))); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitBatch([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAnswer(id, "after-ckpt", 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, st2, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	parked := m2.Parked()
	if len(parked) != 1 || parked[0].ID != id {
		t.Fatalf("recovered parked set = %+v, want only entry %d", parked, id)
	}
	want := []inbox.Answer{{Context: "before-ckpt", Option: 1}, {Context: "after-ckpt", Option: 0}}
	if len(parked[0].Answers) != len(want) {
		t.Fatalf("answers = %+v, want %+v", parked[0].Answers, want)
	}
	for i, a := range parked[0].Answers {
		if a != want[i] {
			t.Fatalf("answer %d = %+v, want %+v", i, a, want[i])
		}
	}
	if !contains(st2.Snap(allSeeing), tup("R", c("p"), c("q"))) {
		t.Fatal("checkpointed batch lost")
	}
	// The resolved entry must not come back, and its ID stays burned.
	nid, err := m2.AppendPark(chase.Insert(tup("C", c("y"))))
	if err != nil {
		t.Fatal(err)
	}
	if nid != 3 {
		t.Fatalf("next park ID = %d, want 3", nid)
	}
}

// TestParkedUpdateOutlivesSegmentRetirement: with tiny segments and
// aggressive checkpointing, the segment holding the original park
// frame is eventually retired — the parked entry must survive through
// the checkpoint's parked section regardless.
func TestParkedUpdateOutlivesSegmentRetirement(t *testing.T) {
	dir := t.TempDir()
	schema := controlSchema()
	m, st, err := Open(dir, schema, Options{SegmentBytes: 256, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.AppendPark(chase.Insert(tup("C", c("parked"))))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendAnswer(id, "early", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, _, err := st.Insert(i+1, tup("R", c(fmt.Sprintf("k%d", i)), c("v"))); err != nil {
			t.Fatal(err)
		}
		if err := st.CommitBatch([]int{i + 1}); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _, err := Open(dir, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	parked := m2.Parked()
	if len(parked) != 1 || parked[0].ID != id {
		t.Fatalf("parked entry lost to segment retirement: %+v", parked)
	}
	if len(parked[0].Answers) != 1 || parked[0].Answers[0].Context != "early" {
		t.Fatalf("parked answers lost: %+v", parked[0].Answers)
	}
}

// FuzzInboxReplay fuzzes the control-record subsystem on two fronts.
// Arbitrary bytes fed to the control decoder must never panic — a
// corrupted frame that passed the CRC by accident still fails
// gracefully. And a random script of park/answer/resume appends driven
// through a real log whose tail is then truncated at an arbitrary byte
// must recover to exactly the parked-set state after some prefix of
// the appends (control frames are individually synced, so any injury
// cuts whole frames, never rewrites history).
func FuzzInboxReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint16(0))
	f.Add([]byte{2, 1, 0}, uint16(5))
	f.Add([]byte{3, 1, 0, 3, 97, 98, 99, 2}, uint16(100))
	f.Add([]byte{4, 1, 1}, uint16(9))
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, uint16(65535))
	f.Fuzz(func(t *testing.T, script []byte, cut uint16) {
		// Front 1: the decoder survives arbitrary payloads.
		rels := []string{"C", "R"}
		ps := newParkedSet()
		_ = ps.applyControl(script, rels)

		// Front 2: scripted appends + torn tail recover to a prefix.
		if len(script) == 0 {
			return
		}
		dir := t.TempDir()
		schema := controlSchema()
		m, _, err := Open(dir, schema, Options{SegmentBytes: 512, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		render := func(parked []ParkedUpdate) string {
			return fmt.Sprintf("%+v", parked)
		}
		states := []string{render(m.Parked())}
		var live []int64
		for i, b := range script {
			switch {
			case b < 120 || len(live) == 0:
				op := chase.Insert(tup("C", c(string(rune('a'+b%26)))))
				if b%3 == 1 {
					op = chase.Delete(tup("R", c("a"), c("b")))
				}
				id, err := m.AppendPark(op)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			case b < 200:
				id := live[int(b)%len(live)]
				if err := m.AppendAnswer(id, fmt.Sprintf("ctx-%d", i), int(b)%4); err != nil {
					t.Fatal(err)
				}
			case b < 240:
				k := int(b) % len(live)
				if err := m.AppendResume(live[k], b%2 == 0); err != nil {
					t.Fatal(err)
				}
				live = append(live[:k], live[k+1:]...)
			default:
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			states = append(states, render(m.Parked()))
		}
		m.crashStop()

		segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
		if len(segs) > 0 {
			seg := segs[len(segs)-1]
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			at := int(cut) % (len(data) + 1)
			if err := os.WriteFile(seg, data[:at], 0o644); err != nil {
				t.Fatal(err)
			}
		}

		m2, _, err := Open(dir, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Close()
		got := render(m2.Parked())
		for _, s := range states {
			if got == s {
				return
			}
		}
		t.Fatalf("recovered parked set is not a prefix state:\n got: %s\nstates: %v", got, states)
	})
}
