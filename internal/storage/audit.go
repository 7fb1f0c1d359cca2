package storage

import (
	"fmt"
	"slices"
)

// AuditIndexes checks the secondary indexes against the version chains
// they are derived from. It rebuilds every index from the chains, in
// ascending tuple-ID order, and requires the live one to be identical:
// a tuple is listed under a column value's key, a content key or a
// labeled null exactly when one of its versions carries it, every list is
// strictly ascending, and no empty list is left behind. It also checks
// the horizon: a tuple holding committed garbage — a version below its
// newest committed one, or a committed tombstone — must be on its
// stripe's pending list, and with no uncommitted writer live every
// pending list is empty, so every tuple has exactly one version and no
// tombstone is left. It holds every stripe's read lock and costs a pass
// over the whole store, so it is for tests and on-demand diagnosis, not
// for a hot path.
func (st *Store) AuditIndexes() error {
	st.rlockAll()
	defer st.runlockAll()
	idle := st.horizon().idle()
	var nulls postings[uint64]
	for _, s := range st.byIdx {
		ids := make([]TupleID, 0, len(s.tuples))
		for id := range s.tuples {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, s.ids) {
			return fmt.Errorf("storage: audit %s: member list %v, tuples %v", s.rel, s.ids, ids)
		}
		content := postings[uint32]{base: s.base()}
		cols := make([]postings[uint32], len(s.valIdx))
		for i := range cols {
			cols[i].base = s.base()
		}
		if idle && len(s.pending) > 0 && !st.noTrim {
			return fmt.Errorf("storage: audit %s: no writer is live, yet trims of %v are pending", s.rel, s.pending)
		}
		for _, id := range ids {
			tr := s.tuples[id]
			if len(tr.versions) == 0 {
				return fmt.Errorf("storage: audit %s: tuple %d has no version", s.rel, id)
			}
			if !st.noTrim && st.garbage(tr) && !slices.Contains(s.pending, id) {
				return fmt.Errorf("storage: audit %s: tuple %d holds history the horizon may release (%d versions) and no trim is pending", s.rel, id, len(tr.versions))
			}
			for _, v := range tr.versions {
				if v.vals == nil {
					continue
				}
				for i, val := range v.vals {
					cols[i].add(st.key(val.Hash()), id)
					if val.IsNull() {
						nulls.add(val.Hash(), id)
					}
				}
				content.add(st.contentKey(v.vals), id)
			}
		}
		for i := range cols {
			if err := sameIndex(&cols[i], &s.valIdx[i]); err != nil {
				return fmt.Errorf("storage: audit %s column %d: %w", s.rel, i, err)
			}
		}
		if err := sameIndex(&content, &s.contentIdx); err != nil {
			return fmt.Errorf("storage: audit %s content index: %w", s.rel, err)
		}
	}
	st.nullMu.Lock()
	defer st.nullMu.Unlock()
	if err := sameIndex(&nulls, &st.nullIdx); err != nil {
		return fmt.Errorf("storage: audit null index: %w", err)
	}
	return nil
}

// sameIndex reports how a live index differs from its rebuild, or
// breaks its layout.
func sameIndex[W uint32 | uint64](want, got *postings[W]) error {
	var g1, w1 [1]TupleID
	for k := range got.m {
		if g, w := got.get(k, &g1), want.get(k, &w1); !slices.Equal(g, w) {
			return fmt.Errorf("key %d lists %v, its versions give %v", k, g, w)
		}
	}
	if len(got.m) != len(want.m) {
		return fmt.Errorf("%d keys listed, the versions give %d", len(got.m), len(want.m))
	}
	return got.checkLayout()
}
