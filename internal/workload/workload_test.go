package workload

import (
	"math/rand"
	"testing"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
)

func quickUniverse(t *testing.T, mutate func(*Config)) *Universe {
	t.Helper()
	cfg := Quick()
	cfg.InitialTuples = 60
	if mutate != nil {
		mutate(&cfg)
	}
	u, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestBuildShape(t *testing.T) {
	u := quickUniverse(t, nil)
	cfg := u.Config
	if u.Schema.Len() != cfg.Relations {
		t.Fatalf("relations = %d", u.Schema.Len())
	}
	for _, r := range u.Schema.Relations() {
		if r.Arity() < cfg.MinArity || r.Arity() > cfg.MaxArity {
			t.Fatalf("relation %s arity %d out of bounds", r.Name, r.Arity())
		}
	}
	if len(u.Pool) != cfg.Constants {
		t.Fatalf("pool = %d", len(u.Pool))
	}
	seen := map[string]bool{}
	for _, c := range u.Pool {
		if seen[c.ConstValue()] {
			t.Fatalf("duplicate pool constant %s", c)
		}
		seen[c.ConstValue()] = true
	}
	if u.Mappings.Len() != cfg.Mappings {
		t.Fatalf("mappings = %d", u.Mappings.Len())
	}
	for _, m := range u.Mappings.All() {
		if len(m.LHS) < 1 || len(m.LHS) > cfg.MaxAtomsPerSide ||
			len(m.RHS) < 1 || len(m.RHS) > cfg.MaxAtomsPerSide {
			t.Fatalf("mapping %s side sizes out of bounds: %s", m.Name, m)
		}
		if err := m.Validate(u.Schema); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := quickUniverse(t, nil)
	b := quickUniverse(t, nil)
	if a.Mappings.Len() != b.Mappings.Len() {
		t.Fatal("mapping counts differ")
	}
	for i, m := range a.Mappings.All() {
		if m.String() != b.Mappings.All()[i].String() {
			t.Fatalf("mapping %d differs:\n%s\n%s", i, m, b.Mappings.All()[i])
		}
	}
	if len(a.Initial) != len(b.Initial) {
		t.Fatalf("initial sizes differ: %d vs %d", len(a.Initial), len(b.Initial))
	}
	for i := range a.Initial {
		if !a.Initial[i].Equal(b.Initial[i]) {
			t.Fatalf("initial fact %d differs", i)
		}
	}
	// Different seed differs.
	c := quickUniverse(t, func(cfg *Config) { cfg.Seed = 99 })
	same := c.Mappings.Len() == a.Mappings.Len()
	if same {
		identical := true
		for i, m := range a.Mappings.All() {
			if m.String() != c.Mappings.All()[i].String() {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical mappings")
		}
	}
}

func TestInitialDBSatisfiesAllMappings(t *testing.T) {
	u := quickUniverse(t, nil)
	if len(u.Initial) == 0 {
		t.Fatal("empty initial database")
	}
	st, err := u.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	e := query.NewEngine(st.Snap(0))
	if vs := e.AllViolations(u.Mappings); len(vs) != 0 {
		t.Fatalf("initial database violates mappings: %v", vs[:min(3, len(vs))])
	}
	// Prefix sets are satisfied a fortiori.
	if vs := e.AllViolations(u.Mappings.Prefix(u.Mappings.Len() / 2)); len(vs) != 0 {
		t.Fatalf("prefix violated: %v", vs)
	}
}

func TestGenOpsAllInsert(t *testing.T) {
	u := quickUniverse(t, nil)
	ops := u.GenOps(rand.New(rand.NewSource(7)))
	if len(ops) != u.Config.Updates {
		t.Fatalf("ops = %d", len(ops))
	}
	for _, op := range ops {
		if op.Kind != chase.OpInsert {
			t.Fatalf("all-insert workload contains %v", op)
		}
		if err := u.Schema.CheckTuple(op.Tuple); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenOpsMixed(t *testing.T) {
	u := quickUniverse(t, func(cfg *Config) { cfg.InsertPct = 80 })
	ops := u.GenOps(rand.New(rand.NewSource(7)))
	ins, del := 0, 0
	for _, op := range ops {
		switch op.Kind {
		case chase.OpInsert:
			ins++
		case chase.OpDelete:
			del++
		default:
			t.Fatalf("unexpected op %v", op)
		}
	}
	wantIns := u.Config.Updates * 80 / 100
	if ins != wantIns || del != u.Config.Updates-wantIns {
		t.Fatalf("mix = %d inserts, %d deletes", ins, del)
	}
	// Deletes target initial facts.
	st, _ := u.NewStore()
	for _, op := range ops {
		if op.Kind == chase.OpDelete && !st.Snap(0).ContainsContent(op.Tuple) {
			t.Fatalf("delete targets a non-fact: %v", op)
		}
	}
}

func TestGenOpsFreshNulls(t *testing.T) {
	u := quickUniverse(t, func(cfg *Config) { cfg.FreshNulls = true })
	ops := u.GenOps(rand.New(rand.NewSource(3)))
	foundNull := false
	for _, op := range ops {
		for _, v := range op.Tuple.Vals {
			if v.IsNull() {
				foundNull = true
			}
		}
	}
	if !foundNull {
		t.Fatal("FreshNulls workload contains no nulls")
	}
}

// TestInitialDBParallelMatchesSerial pins the equivalence the default
// parallel setup path relies on: building the same universe through
// the serial reference scheduler and through the parallel scheduler
// must extract byte-identical initial databases — the parallel run is
// serializable, the simulated user decides on canonical contexts, and
// canonicalizeNulls erases the remaining null-allocation differences.
func TestInitialDBParallelMatchesSerial(t *testing.T) {
	cfg := Quick()
	cfg.InitialTuples = 120
	cfg.Relations = 10
	cfg.Mappings = 12

	serialCfg := cfg
	serialCfg.SetupWorkers = -1
	us, err := Build(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parCfg := cfg
	parCfg.SetupWorkers = 8
	up, err := Build(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(us.Initial) != len(up.Initial) {
		t.Fatalf("initial sizes differ: serial %d, parallel %d", len(us.Initial), len(up.Initial))
	}
	for i := range us.Initial {
		if !us.Initial[i].Equal(up.Initial[i]) {
			t.Fatalf("fact %d differs: serial %s, parallel %s", i, us.Initial[i], up.Initial[i])
		}
	}
}

// TestCanonicalizeNullsIsOrderInsensitive: permuting the input facts
// must not change the canonical output set.
func TestCanonicalizeNullsIsOrderInsensitive(t *testing.T) {
	n := func(id int64) model.Value { return model.Null(id) }
	c := func(s string) model.Value { return model.Const(s) }
	facts := []model.Tuple{
		model.NewTuple("R0", n(7), c("a")),
		model.NewTuple("R1", n(7), n(9)),
		model.NewTuple("R2", c("b"), n(9)),
	}
	perm := []model.Tuple{facts[2], facts[0], facts[1]}
	a := canonicalizeNulls(facts)
	b := canonicalizeNulls(perm)
	if model.CanonTuples(a) != model.CanonTuples(b) {
		t.Fatalf("canonicalization order-sensitive:\n%v\n%v", a, b)
	}
	// Shared nulls must stay shared after renumbering.
	var shared model.Value
	for _, tp := range a {
		if tp.Rel == "R1" {
			shared = tp.Vals[1]
		}
	}
	for _, tp := range a {
		if tp.Rel == "R2" && tp.Vals[1] != shared {
			t.Fatalf("cross-tuple null sharing broken: %v", a)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Relations = 0 },
		func(c *Config) { c.MinArity = 0 },
		func(c *Config) { c.MaxArity = 0 },
		func(c *Config) { c.Constants = 0 },
		func(c *Config) { c.InsertPct = 101 },
		func(c *Config) { c.MaxAtomsPerSide = 0 },
		func(c *Config) { c.InitialTuples = -1 },
		func(c *Config) { c.Updates = -1 },
	}
	for i, mutate := range bad {
		cfg := Quick()
		mutate(&cfg)
		if _, err := Build(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := Default()
	if cfg.Relations != 100 || cfg.Constants != 50 || cfg.Mappings != 100 ||
		cfg.InitialTuples != 10000 || cfg.Updates != 500 {
		t.Fatalf("Default() does not match §6: %+v", cfg)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
