package workload

import (
	"slices"
	"testing"

	"math/rand"

	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
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
		if op.Kind == chase.OpDelete && !contains(st.Snap(0), op.Tuple) {
			t.Fatalf("delete targets a non-fact: %v", op)
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

// contains reports whether a tuple with t's content is visible in sn.
func contains(sn *storage.Snapshot, t model.Tuple) bool {
	rows, _ := sn.ProbeRows(t.Rel, -1, model.Value{}, nil, func(vals []model.Value) (bool, bool) {
		eq := slices.Equal(vals, t.Vals)
		return eq, eq
	})
	return len(rows) > 0
}
