package fixtures

import (
	"testing"

	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
)

func TestTravelSatisfiesMappings(t *testing.T) {
	_, set, st, err := Travel()
	if err != nil {
		t.Fatal(err)
	}
	e := query.NewEngine(st.Snap(0))
	if vs := e.AllViolations(set); len(vs) != 0 {
		t.Fatalf("Figure 2 instance violates its mappings: %v", vs)
	}
	if countRel(st.Snap(0), "C") != 2 || countRel(st.Snap(0), "S") != 2 {
		t.Fatalf("unexpected instance:\n%s", st.Dump(0))
	}
}

func TestTravelSchemaShape(t *testing.T) {
	s := TravelSchema()
	if s.Len() != 7 {
		t.Fatalf("relations = %d", s.Len())
	}
	if s.Arity("S") != 3 || s.Arity("C") != 1 {
		t.Fatal("arity wrong")
	}
}

func TestTravelMappingsShape(t *testing.T) {
	set := TravelMappings()
	if set.Len() != 4 {
		t.Fatalf("mappings = %d", set.Len())
	}
	if err := set.Validate(TravelSchema()); err != nil {
		t.Fatal(err)
	}
	sigma2, _ := set.ByName("sigma2")
	if len(sigma2.RHS) != 2 {
		t.Fatalf("sigma2 = %s", sigma2)
	}
}

func TestGenealogy(t *testing.T) {
	_, set, st, err := Genealogy()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("mappings = %d", set.Len())
	}
	if countRel(st.Snap(0), "Person") != 0 {
		t.Fatal("genealogy must start empty")
	}
}

// countRel returns the number of tuples of rel visible in sn.
func countRel(sn *storage.Snapshot, rel string) int {
	rows, _ := sn.ProbeRows(rel, -1, model.Value{}, nil, nil)
	return len(rows)
}
