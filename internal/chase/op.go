// Package chase implements Youtopia's cooperative chase (§2 of the
// paper): the forward chase that repairs LHS-violations by generating
// missing RHS tuples, the backward chase that repairs RHS-violations
// by deleting witness tuples, and the frontier machinery through which
// humans resolve the nondeterministic repairs — expansion, unification
// and deletion-subset selection (plus the reconfirmation operation the
// paper proposes as future work).
//
// The package follows the paper's execution model: an update is a
// sequence of chase steps (Algorithm 2), each performing a set of
// writes, discovering the violations those writes created, and
// planning the corrective writes for the next step — possibly pausing
// for a frontier operation. A scheduler (package cc) drives steps and
// interleaves updates.
package chase

import (
	"fmt"

	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// OpKind classifies user operations and internal writes.
type OpKind uint8

const (
	// OpInsert inserts a tuple.
	OpInsert OpKind = iota
	// OpDelete removes a fact (all visible copies of a tuple content).
	OpDelete
	// OpDeleteID tombstones one specific tuple; used internally by the
	// backward chase, which selects concrete witness tuples.
	OpDeleteID
	// OpReplaceNull replaces every occurrence of a labeled null with a
	// value (the paper's null-replacement user operation, also issued
	// internally by frontier unification).
	OpReplaceNull
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpDeleteID:
		return "delete-id"
	case OpReplaceNull:
		return "replace-null"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is a database write: the initial operation of an update, or a
// corrective write planned by the chase.
type Op struct {
	Kind OpKind
	// cause records why the chase planned this write, and mapping
	// through which mapping; Cause renders the two. The rendering is
	// left to its one reader, a trace that records the write. cause
	// sits in Kind's padding, so Op is no larger than with a rendered
	// string.
	cause causeKind
	// Tuple is the inserted tuple (OpInsert) or the fact to remove
	// (OpDelete).
	Tuple model.Tuple
	// ID is the tuple to tombstone (OpDeleteID).
	ID storage.TupleID
	// Null and With describe a null-replacement (OpReplaceNull).
	Null    model.Value
	With    model.Value
	mapping string // see cause
}

// causeKind names the reason a write was planned (Op.Cause).
type causeKind uint8

const (
	causeInitial causeKind = iota + 1
	causeForward
	causeBackward
	causeExpansion
	causeUnification
	causeDeletionChoice
	causeReconfirmation
)

// because returns the operation with its cause set.
func (o Op) because(k causeKind, mapping string) Op {
	o.cause, o.mapping = k, mapping
	return o
}

// Cause renders why the chase planned this write — provenance for
// users inspecting the cascade ("initial operation", "forward repair
// of sigma3", "frontier unification for sigma1", ...). It is empty for
// an operation the chase did not plan.
func (o Op) Cause() string {
	switch o.cause {
	case causeInitial:
		return "initial operation"
	case causeForward:
		return "forward repair of " + o.mapping
	case causeBackward:
		return "backward repair of " + o.mapping
	case causeExpansion:
		return "frontier expansion for " + o.mapping
	case causeUnification:
		return "frontier unification for " + o.mapping
	case causeDeletionChoice:
		return "frontier deletion choice for " + o.mapping
	case causeReconfirmation:
		return "backward repair of " + o.mapping + " after reconfirmation"
	default:
		return ""
	}
}

// Insert returns an insert operation.
func Insert(t model.Tuple) Op { return Op{Kind: OpInsert, Tuple: t} }

// Delete returns a delete-by-content operation.
func Delete(t model.Tuple) Op { return Op{Kind: OpDelete, Tuple: t} }

// DeleteID returns a delete-by-ID operation.
func DeleteID(id storage.TupleID) Op { return Op{Kind: OpDeleteID, ID: id} }

// ReplaceNull returns a null-replacement operation.
func ReplaceNull(x, with model.Value) Op {
	return Op{Kind: OpReplaceNull, Null: x, With: with}
}

// Positive reports whether an update starting with this operation is a
// positive update (Definition 2.6): insertions and null-completions
// are positive, deletions negative.
func (o Op) Positive() bool {
	return o.Kind == OpInsert || o.Kind == OpReplaceNull
}

// String renders the operation.
func (o Op) String() string {
	switch o.Kind {
	case OpInsert:
		return "insert " + o.Tuple.String()
	case OpDelete:
		return "delete " + o.Tuple.String()
	case OpDeleteID:
		return fmt.Sprintf("delete tuple #%d", o.ID)
	case OpReplaceNull:
		return fmt.Sprintf("replace %s with %s", o.Null, o.With)
	default:
		return "unknown op"
	}
}

// applySubst rewrites the operation under a null substitution; pending
// corrective writes must track unifications performed before they
// execute.
func (o Op) applySubst(s model.Subst) Op {
	out := o
	switch o.Kind {
	case OpInsert, OpDelete:
		out.Tuple = s.ApplyTuple(o.Tuple)
	case OpReplaceNull:
		if v, ok := s[o.Null]; ok && v.IsNull() {
			out.Null = v
		}
		if v, ok := s[o.With]; ok {
			out.With = v
		}
	}
	return out
}
