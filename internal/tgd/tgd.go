// Package tgd represents the mappings of a Youtopia repository:
// tuple-generating dependencies of the form
//
//	Φ(x̄, ȳ) → ∃z̄ Ψ(x̄, z̄)
//
// where Φ (the LHS) and Ψ (the RHS) are conjunctions of relational
// atoms, x̄ are variables shared between the two sides, ȳ occur only
// on the LHS, and z̄ (the existential variables) only on the RHS.
// Mappings may connect arbitrary relations, may contain self-joins and
// constants, and — centrally to the paper — may form cycles.
//
// The package also provides the static analyses the paper discusses:
// the relation dependency graph, cycle detection, and the classical
// weak-acyclicity test (Fagin et al., "Data exchange: semantics and
// query answering") that systems with the standard chase need and
// Youtopia does not.
package tgd

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"youtopia/internal/model"
)

// Term is one argument position of an atom: either a variable (named)
// or a constant. A constant is held interned, so a mapping keeps its
// constants alive and every evaluation compares and probes with the
// same Value.
type Term struct {
	IsVar bool
	Var   string      // variable name when IsVar
	Const model.Value // constant when !IsVar
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(val string) Term { return Term{Const: model.Const(val)} }

// String renders the term: variables bare, constants quoted.
func (t Term) String() string {
	if t.IsVar {
		return t.Var
	}
	return fmt.Sprintf("%q", t.Const.ConstValue())
}

// Atom is a relational atom R(t1, ..., tk).
type Atom struct {
	Rel   string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, terms ...Term) Atom {
	return Atom{Rel: rel, Terms: terms}
}

// Vars returns the variables of the atom in first-occurrence order.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Terms {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// String renders the atom, e.g. S(a, l, "NYC").
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// TGD is a tuple-generating dependency (a Youtopia mapping).
type TGD struct {
	// Name identifies the mapping in diagnostics, e.g. "sigma3".
	Name string
	// LHS is the premise Φ; RHS is the conclusion Ψ.
	LHS, RHS []Atom

	// Derived sets, populated by Init/Validate.
	lhsVars   map[string]bool // all variables occurring in the LHS
	rhsVars   map[string]bool // all variables occurring in the RHS
	frontier  []string        // x̄: variables shared by LHS and RHS, in order
	existVars []string        // z̄: RHS-only variables, in order
	lhsRels   map[string]bool
	rhsRels   map[string]bool
	rels      []string // every relation, LHS first then RHS, no duplicates

	// compiled caches the query layer's compiled plan for this mapping
	// (an opaque pointer so tgd stays independent of internal/query).
	// Riding on the TGD itself makes the cache lookup one atomic load —
	// no map, no lock — and shares the plan across every engine and
	// worker evaluating the mapping. Mappings are immutable after New,
	// so the first published plan is valid for the TGD's lifetime.
	compiled atomic.Pointer[any]
}

// CachedPlan returns the compiled plan published for this mapping, or
// nil when none has been compiled yet.
func (t *TGD) CachedPlan() any {
	if p := t.compiled.Load(); p != nil {
		return *p
	}
	return nil
}

// PublishPlan publishes p as the mapping's compiled plan unless one is
// already cached, and returns whichever plan won — callers racing to
// compile all converge on one shared plan.
func (t *TGD) PublishPlan(p any) any {
	t.compiled.CompareAndSwap(nil, &p)
	return *t.compiled.Load()
}

// New builds a TGD and computes its derived variable sets. It does not
// validate against a schema; call Validate for that.
func New(name string, lhs, rhs []Atom) *TGD {
	t := &TGD{Name: name, LHS: lhs, RHS: rhs}
	t.init()
	return t
}

func (t *TGD) init() {
	t.lhsVars = make(map[string]bool)
	t.rhsVars = make(map[string]bool)
	t.lhsRels = make(map[string]bool)
	t.rhsRels = make(map[string]bool)
	t.rels = t.rels[:0]
	for _, a := range t.LHS {
		if !t.lhsRels[a.Rel] {
			t.rels = append(t.rels, a.Rel)
		}
		t.lhsRels[a.Rel] = true
		for _, v := range a.Vars() {
			t.lhsVars[v] = true
		}
	}
	for _, a := range t.RHS {
		if !t.lhsRels[a.Rel] && !t.rhsRels[a.Rel] {
			t.rels = append(t.rels, a.Rel)
		}
		t.rhsRels[a.Rel] = true
		for _, v := range a.Vars() {
			t.rhsVars[v] = true
		}
	}
	t.frontier = t.frontier[:0]
	t.existVars = t.existVars[:0]
	seen := make(map[string]bool)
	for _, a := range t.RHS {
		for _, v := range a.Vars() {
			if seen[v] {
				continue
			}
			seen[v] = true
			if t.lhsVars[v] {
				t.frontier = append(t.frontier, v)
			} else {
				t.existVars = append(t.existVars, v)
			}
		}
	}
}

// FrontierVars returns x̄: the universally quantified variables that
// appear on both sides, in RHS first-occurrence order.
func (t *TGD) FrontierVars() []string { return t.frontier }

// ExistentialVars returns z̄: the RHS-only (existentially quantified)
// variables, in first-occurrence order.
func (t *TGD) ExistentialVars() []string { return t.existVars }

// IsExistential reports whether v is existentially quantified.
func (t *TGD) IsExistential(v string) bool { return t.rhsVars[v] && !t.lhsVars[v] }

// LHSRelations returns the set of relation names used on the LHS.
func (t *TGD) LHSRelations() map[string]bool { return t.lhsRels }

// RHSRelations returns the set of relation names used on the RHS.
func (t *TGD) RHSRelations() map[string]bool { return t.rhsRels }

// UsesRelation reports whether the relation occurs on either side. It
// scans Relations(), a handful of names, which is cheaper than a map
// lookup on the conflict checks' path.
func (t *TGD) UsesRelation(rel string) bool {
	return slices.Contains(t.rels, rel)
}

// Relations returns every relation mentioned by the mapping, LHS first
// then RHS, without duplicates. This is the relation set a COARSE
// violation-query dependency is charged against (§5.1.1). The slice is
// computed once at construction and shared by every caller — the chase
// asks for it on every violation query — so it is read-only: callers
// that need to reorder or extend it must copy first.
func (t *TGD) Relations() []string { return t.rels }

// Validate checks the mapping against a schema: every atom's relation
// must be declared with matching arity, both sides must be nonempty,
// and every atom argument must be a variable or constant. Youtopia
// deliberately does not require acyclicity.
func (t *TGD) Validate(schema *model.Schema) error {
	if t.Name == "" {
		return fmt.Errorf("tgd: mapping has no name")
	}
	if len(t.LHS) == 0 {
		return fmt.Errorf("tgd %s: empty LHS", t.Name)
	}
	if len(t.RHS) == 0 {
		return fmt.Errorf("tgd %s: empty RHS", t.Name)
	}
	check := func(side string, atoms []Atom) error {
		for _, a := range atoms {
			ar := schema.Arity(a.Rel)
			if ar < 0 {
				return fmt.Errorf("tgd %s: %s atom %s uses undeclared relation %s",
					t.Name, side, a, a.Rel)
			}
			if ar != len(a.Terms) {
				return fmt.Errorf("tgd %s: %s atom %s has arity %d, relation %s has arity %d",
					t.Name, side, a, len(a.Terms), a.Rel, ar)
			}
			for _, term := range a.Terms {
				if term.IsVar && term.Var == "" {
					return fmt.Errorf("tgd %s: %s atom %s has an unnamed variable",
						t.Name, side, a)
				}
			}
		}
		return nil
	}
	if err := check("LHS", t.LHS); err != nil {
		return err
	}
	if err := check("RHS", t.RHS); err != nil {
		return err
	}
	return nil
}

// String renders the mapping in the paper's style, e.g.
//
//	sigma1: C(c) -> exists a, l: S(a, l, c)
func (t *TGD) String() string {
	var b strings.Builder
	if t.Name != "" {
		b.WriteString(t.Name)
		b.WriteString(": ")
	}
	b.WriteString(joinAtoms(t.LHS))
	b.WriteString(" -> ")
	if len(t.existVars) > 0 {
		b.WriteString("exists ")
		b.WriteString(strings.Join(t.existVars, ", "))
		b.WriteString(": ")
	}
	b.WriteString(joinAtoms(t.RHS))
	return b.String()
}

func joinAtoms(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " & ")
}

// Set is an ordered collection of mappings with name lookup.
type Set struct {
	list  []*TGD
	named map[string]*TGD
	// byRel caches, per relation, the mappings that mention it on the
	// LHS and on the RHS; the chase consults this on every write.
	byLHSRel map[string][]*TGD
	byRHSRel map[string][]*TGD
}

// NewSet builds a mapping set. Duplicate names are rejected.
func NewSet(tgds ...*TGD) (*Set, error) {
	s := &Set{
		named:    make(map[string]*TGD),
		byLHSRel: make(map[string][]*TGD),
		byRHSRel: make(map[string][]*TGD),
	}
	for _, t := range tgds {
		if err := s.Add(t); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSet is NewSet that panics on error.
func MustNewSet(tgds ...*TGD) *Set {
	s, err := NewSet(tgds...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends a mapping to the set.
func (s *Set) Add(t *TGD) error {
	if _, dup := s.named[t.Name]; dup {
		return fmt.Errorf("tgd: duplicate mapping name %s", t.Name)
	}
	s.named[t.Name] = t
	s.list = append(s.list, t)
	for rel := range t.LHSRelations() {
		s.byLHSRel[rel] = append(s.byLHSRel[rel], t)
	}
	for rel := range t.RHSRelations() {
		s.byRHSRel[rel] = append(s.byRHSRel[rel], t)
	}
	return nil
}

// All returns the mappings in insertion order.
func (s *Set) All() []*TGD { return s.list }

// Len returns the number of mappings.
func (s *Set) Len() int { return len(s.list) }

// ByName looks a mapping up by name.
func (s *Set) ByName(name string) (*TGD, bool) {
	t, ok := s.named[name]
	return t, ok
}

// WithLHSRelation returns the mappings whose LHS mentions rel. A write
// to rel can create or remove LHS matches of exactly these mappings.
func (s *Set) WithLHSRelation(rel string) []*TGD { return s.byLHSRel[rel] }

// WithRHSRelation returns the mappings whose RHS mentions rel. A write
// to rel can satisfy or break the RHS of exactly these mappings.
func (s *Set) WithRHSRelation(rel string) []*TGD { return s.byRHSRel[rel] }

// Validate validates every mapping in the set against the schema.
func (s *Set) Validate(schema *model.Schema) error {
	for _, t := range s.list {
		if err := t.Validate(schema); err != nil {
			return err
		}
	}
	return nil
}

// Prefix returns a new Set containing the first n mappings, matching
// the paper's monotonically increasing mapping-set experiments (§6).
// It panics if n exceeds the set size.
func (s *Set) Prefix(n int) *Set {
	if n > len(s.list) {
		panic(fmt.Sprintf("tgd: Prefix(%d) of a set with %d mappings", n, len(s.list)))
	}
	return MustNewSet(s.list[:n]...)
}
