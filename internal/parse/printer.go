package parse

import (
	"fmt"
	"sort"
	"strings"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/tgd"
)

// This file renders schemas, mappings and tuples back into the
// repository language, such that parsing the output reproduces the
// input (round-trip property, tested with testing/quick).

// PrintSchema renders relation declarations, one per line.
func PrintSchema(s *model.Schema) string {
	var b strings.Builder
	for _, r := range s.Relations() {
		fmt.Fprintf(&b, "relation %s(%s)\n", r.Name, strings.Join(r.Attrs, ", "))
	}
	return b.String()
}

// PrintTerm renders one atom argument.
func PrintTerm(t tgd.Term) string {
	if t.IsVar {
		return t.Var
	}
	return quote(t.Const.ConstValue())
}

// PrintAtom renders one atom.
func PrintAtom(a tgd.Atom) string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = PrintTerm(t)
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

func printAtoms(atoms []tgd.Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = PrintAtom(a)
	}
	return strings.Join(parts, ", ")
}

// PrintMapping renders a mapping declaration line.
func PrintMapping(t *tgd.TGD) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping %s: %s -> ", t.Name, printAtoms(t.LHS))
	if ex := t.ExistentialVars(); len(ex) > 0 {
		fmt.Fprintf(&b, "exists %s: ", strings.Join(ex, ", "))
	}
	b.WriteString(printAtoms(t.RHS))
	return b.String()
}

// PrintMappings renders every mapping of a set, one per line.
func PrintMappings(s *tgd.Set) string {
	var b strings.Builder
	for _, t := range s.All() {
		b.WriteString(PrintMapping(t))
		b.WriteByte('\n')
	}
	return b.String()
}

// PrintValue renders a tuple value; labeled nulls use their canonical
// source name ?x<id>.
func PrintValue(v model.Value) string {
	if v.IsNull() {
		return fmt.Sprintf("?x%d", v.NullID())
	}
	return quote(v.ConstValue())
}

// PrintTuple renders a tuple literal body, e.g. S("SYR", ?x1, "Ithaca").
func PrintTuple(t model.Tuple) string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = PrintValue(v)
	}
	return t.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// PrintDocument renders a full document: schema, mappings, tuples.
func PrintDocument(d *Document) string {
	var b strings.Builder
	b.WriteString(PrintSchema(d.Schema))
	if d.Mappings.Len() > 0 {
		b.WriteByte('\n')
		b.WriteString(PrintMappings(d.Mappings))
	}
	if len(d.Tuples) > 0 {
		b.WriteByte('\n')
		for _, t := range d.Tuples {
			fmt.Fprintf(&b, "tuple %s\n", PrintTuple(t))
		}
	}
	for _, op := range d.Ops {
		b.WriteString(printOp(op))
		b.WriteByte('\n')
	}
	return b.String()
}

func printOp(op chase.Op) string {
	switch op.Kind {
	case chase.OpInsert:
		return "insert " + PrintTuple(op.Tuple)
	case chase.OpDelete:
		return "delete " + PrintTuple(op.Tuple)
	case chase.OpReplaceNull:
		return fmt.Sprintf("replace %s %s", PrintValue(op.Null), PrintValue(op.With))
	default:
		return "# unprintable op"
	}
}

// quote renders a constant with escapes.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('"')
	return b.String()
}

// SortedNullNames lists a document's null names deterministically.
func SortedNullNames(d *Document) []string {
	out := make([]string, 0, len(d.Nulls))
	for name := range d.Nulls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
