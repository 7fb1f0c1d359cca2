package core

import (
	"errors"
	"strings"
	"testing"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/fixtures"
	"youtopia/internal/model"
	"youtopia/internal/parse"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

func c(s string) model.Value { return model.Const(s) }
func tup(rel string, vals ...model.Value) model.Tuple {
	return model.NewTuple(rel, vals...)
}

func travelRepo(t *testing.T) *Repository {
	t.Helper()
	r, err := New(fixtures.TravelSchema(), fixtures.TravelMappings())
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.TravelData(r.Store()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestApplyInsertPropagates(t *testing.T) {
	r := travelRepo(t)
	stats, err := r.Apply(
		chase.Insert(tup("T", c("Niagara Falls"), c("ABC Tours"), c("Toronto"))),
		simuser.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps == 0 || stats.Writes < 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := r.Violations(); len(got) != 0 {
		t.Fatalf("violations after Apply: %v", got)
	}
	facts := r.Facts()
	found := false
	for _, f := range facts["R"] {
		if f.Vals[0] == c("ABC Tours") {
			found = true
		}
	}
	if !found {
		t.Fatalf("review not generated:\n%s", r.Dump())
	}
}

func TestApplyRollbackOnFailure(t *testing.T) {
	r := travelRepo(t)
	before := r.Dump()
	// A deletion that needs a frontier decision, with no user: the
	// update must fail and roll back completely.
	_, err := r.Apply(chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!"))), nil)
	if !errors.Is(err, chase.ErrNoDecision) {
		t.Fatalf("err = %v", err)
	}
	if got := r.Dump(); got != before {
		t.Fatalf("failed update left changes:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	// The repository remains usable.
	if _, err := r.Apply(chase.Insert(tup("C", c("Boston"))), simuser.New(1)); err != nil {
		t.Fatal(err)
	}
}

// deleteFrom is a user that answers a deletion choice with the
// candidate in rel.
func deleteFrom(r *Repository, rel string) chase.User {
	return chase.UserFunc(func(u *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
		snap := r.Store().Snap(u.Number)
		for _, id := range g.Candidates {
			if tv, ok := snap.GetTuple(id); ok && tv.Rel == rel {
				return chase.Decision{Kind: chase.DecideDelete, Subset: []storage.TupleID{id}}, true
			}
		}
		return opts[0], true
	})
}

// reviewDelete deletes the travel fixture's review, which cascades
// into A or T.
var reviewDelete = chase.Delete(tup("R", c("XYZ"), c("Geneva Winery"), c("Great!")))

func TestProtectedRelationRejectsCascade(t *testing.T) {
	r := travelRepo(t)
	if err := r.Protect("T"); err != nil {
		t.Fatal(err)
	}
	if err := r.Protect("Nope"); err == nil {
		t.Fatal("protecting unknown relation accepted")
	}
	before := r.Dump()
	_, err := r.Apply(reviewDelete, deleteFrom(r, "T"))
	if !errors.Is(err, ErrProtectedCascade) {
		t.Fatalf("err = %v", err)
	}
	if got := r.Dump(); got != before {
		t.Fatal("rejected update left changes")
	}
	// Cascading into A instead is allowed.
	if _, err := r.Apply(reviewDelete, deleteFrom(r, "A")); err != nil {
		t.Fatal(err)
	}
}

// TestRunConcurrentRefusesProtected: the scheduler cannot enforce
// protected relations, so RunConcurrent refuses a repository that has
// one before it numbers or writes anything, even for a workload whose
// cascade would delete from it.
func TestRunConcurrentRefusesProtected(t *testing.T) {
	r := travelRepo(t)
	if err := r.Protect("T"); err != nil {
		t.Fatal(err)
	}
	before := r.Dump()
	m, err := r.RunConcurrent([]chase.Op{reviewDelete}, cc.Config{User: deleteFrom(r, "T")})
	if !errors.Is(err, ErrProtectedCascade) {
		t.Fatalf("err = %v, want ErrProtectedCascade", err)
	}
	if got := r.Dump(); got != before || m.Submitted != 0 {
		t.Fatalf("the refused workload ran: %d submitted, dump changed %v", m.Submitted, got != before)
	}
	// Nothing was numbered: Apply's update is still update 1.
	if _, err := r.Apply(reviewDelete, deleteFrom(r, "A")); err != nil || r.nextUpdate != 2 {
		t.Fatalf("Apply after the refusal: %v, next update %d", err, r.nextUpdate)
	}
}

func TestOpenDocument(t *testing.T) {
	src := `
relation C(city)
relation S(code, location, city_served)
mapping sigma1: C(c) -> exists a, l: S(a, l, c)
mapping sigma2: S(a, l, c) -> C(l), C(c)
tuple C("Ithaca")
tuple S("SYR", "Syracuse", "Ithaca")
tuple C("Syracuse")
tuple S("SYR", "Syracuse", "Syracuse")
insert C("Boston")
`
	r, ops, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Fatalf("ops = %v", ops)
	}
	if got := r.Violations(); len(got) != 0 {
		t.Fatalf("initial violations: %v", got)
	}
	if _, err := r.Apply(ops[0], simuser.New(9)); err != nil {
		t.Fatal(err)
	}
	if len(r.Facts()["S"]) < 3 {
		t.Fatalf("airport not generated for Boston:\n%s", r.Dump())
	}
}

func TestOpenErrors(t *testing.T) {
	if _, _, err := Open("relation R(a)\nmapping m: R(x) -> Q(x)\n"); err == nil {
		t.Fatal("invalid document accepted")
	}
}

func TestRunConcurrent(t *testing.T) {
	r := travelRepo(t)
	ops := []chase.Op{
		chase.Insert(tup("V", c("Ithaca"), c("ConfA"))),
		chase.Insert(tup("A", c("Letchworth"), c("Letchworth Falls"))),
	}
	m, err := r.RunConcurrent(ops, cc.Config{User: simuser.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if got := r.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
	// A second concurrent run on a used repository is rejected.
	if _, err := r.RunConcurrent(ops, cc.Config{User: simuser.New(5)}); err == nil {
		t.Fatal("second RunConcurrent accepted")
	}
}

// TestRunConcurrentValidatesConfig: an invalid configuration is
// rejected before any update number is minted, so the repository still
// takes a workload afterwards.
func TestRunConcurrentValidatesConfig(t *testing.T) {
	r := travelRepo(t)
	ops := []chase.Op{chase.Insert(tup("C", c("Boston")))}
	before := r.Dump()
	for _, cfg := range []cc.Config{{MaxIdleRounds: -1}, {MaxAbortsPerUpdate: -1, Workers: 2}} {
		cfg.User = simuser.New(5)
		if _, err := r.RunConcurrent(ops, cfg); err == nil {
			t.Fatalf("RunConcurrent accepted %+v", cfg)
		}
	}
	if r.Dump() != before {
		t.Fatal("a rejected workload wrote")
	}
	if _, err := r.RunConcurrent(ops, cc.Config{User: simuser.New(5)}); err != nil {
		t.Fatalf("a rejected workload used up the numbering: %v", err)
	}
}

// TestRunConcurrentParallel drives RunConcurrent at round width > 1
// and checks it leaves the same facts as width 0 on the same workload.
func TestRunConcurrentParallel(t *testing.T) {
	ops := []chase.Op{
		chase.Insert(tup("V", c("Ithaca"), c("ConfA"))),
		chase.Insert(tup("A", c("Letchworth"), c("Letchworth Falls"))),
		chase.Insert(tup("C", c("Boston"))),
	}
	serial := travelRepo(t)
	if _, err := serial.RunConcurrent(ops, cc.Config{User: simuser.New(5)}); err != nil {
		t.Fatal(err)
	}
	parallel := travelRepo(t)
	m, err := parallel.RunConcurrent(ops, cc.Config{User: simuser.New(5), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	if got := parallel.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
	if parallel.Dump() != serial.Dump() {
		t.Fatalf("parallel facts differ from cooperative facts\nparallel:\n%s\ncooperative:\n%s",
			parallel.Dump(), serial.Dump())
	}
}

func TestQuerySemantics(t *testing.T) {
	r := travelRepo(t)
	// Figure 2's R contains R(x1, Niagara Falls, x2): the review exists
	// but company and text are unknown.
	src := `
relation R2(company, attraction, review)
query reviews(co, a): R2(co, a, r)
`
	_ = src
	doc, err := parseQueries(`
query reviews(co, a): R(co, a, r)
query abc(a): T(a, "ABC Tours", s)
`, r)
	if err != nil {
		t.Fatal(err)
	}
	certain, err := r.Certain(doc[0])
	if err != nil {
		t.Fatal(err)
	}
	// Only the XYZ review is certain; the x1 review row has a null
	// company.
	if len(certain) != 1 || certain[0].Vals[0] != c("XYZ") {
		t.Fatalf("certain = %v", certain)
	}
	best, err := r.BestEffort(doc[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 2 {
		t.Fatalf("best effort = %v", best)
	}
	// ABC Tours runs no certain tour, but x1 might be ABC Tours.
	certain, _ = r.Certain(doc[1])
	best, _ = r.BestEffort(doc[1])
	if len(certain) != 0 || len(best) != 1 {
		t.Fatalf("abc: certain %v best %v", certain, best)
	}
	// Validation errors propagate.
	bad := &query.CQ{Name: "bad", Head: []string{"z"},
		Body: []tgd.Atom{tgd.NewAtom("C", tgd.V("x"))}}
	if _, err := r.Certain(bad); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// TestCertainAnswersAllocs pins Repository.Certain on a warm repository:
// validating the query allocates nothing, so a non-empty answer costs
// its rows and one array of their values, and an empty answer nothing.
func TestCertainAnswersAllocs(t *testing.T) {
	r := travelRepo(t)
	doc, err := parseQueries(`
query reviews(co, a): R(co, a, r)
query abc(a): T(a, "ABC Tours", s)
`, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, bound := range []float64{2, 0} {
		cq := doc[i]
		certain := func() {
			if _, err := r.Certain(cq); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(100, certain); a > bound {
			t.Errorf("Certain(%s): %.1f allocs, want at most %.0f", cq, a, bound)
		}
	}
}

// parseQueries parses query statements against the repository schema.
func parseQueries(body string, r *Repository) ([]*query.CQ, error) {
	src := ""
	for _, rel := range r.Schema().Relations() {
		src += "relation " + rel.String() + "\n"
	}
	doc, err := parse.ParseDocument(src+body, nil)
	if err != nil {
		return nil, err
	}
	return doc.Queries, nil
}

func TestAnalyze(t *testing.T) {
	r := travelRepo(t)
	out := r.Analyze()
	if !strings.Contains(out, "cyclic") {
		t.Fatalf("Analyze = %q", out)
	}
}

func TestNewValidates(t *testing.T) {
	schema := fixtures.TravelSchema()
	bad := fixtures.GenealogyMappings() // wrong schema
	if _, err := New(schema, bad); err == nil {
		t.Fatal("mismatched mappings accepted")
	}
}
