package storage

import (
	"fmt"
	"slices"
)

// AuditIndexes checks the secondary indexes against the version chains
// they are derived from. It rebuilds every index from the chains, in
// ascending tuple-ID order, and requires the live one to be identical:
// a tuple is listed under a column value, a content hash or a labeled
// null exactly when one of its versions carries it, every list is
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
	nulls := make(map[uint64]*bucket)
	for _, s := range st.byIdx {
		ids := make([]TupleID, 0, len(s.tuples))
		for id := range s.tuples {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, s.ids.ids()) {
			return fmt.Errorf("storage: audit %s: member list %v, tuples %v", s.rel, s.ids.ids(), ids)
		}
		content := make(map[uint64]*bucket)
		cols := make([]map[uint64]*bucket, len(s.valIdx))
		for i := range cols {
			cols[i] = make(map[uint64]*bucket)
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
					post(cols[i], val.Hash(), id)
					if val.IsNull() {
						post(nulls, val.Hash(), id)
					}
				}
				post(content, st.contentHash(v.vals), id)
			}
		}
		for i := range cols {
			if err := sameIndex(cols[i], s.valIdx[i]); err != nil {
				return fmt.Errorf("storage: audit %s column %d: %w", s.rel, i, err)
			}
		}
		if err := sameIndex(content, s.contentIdx); err != nil {
			return fmt.Errorf("storage: audit %s content index: %w", s.rel, err)
		}
	}
	st.nullMu.Lock()
	defer st.nullMu.Unlock()
	if err := sameIndex(nulls, st.nullIdx); err != nil {
		return fmt.Errorf("storage: audit null index: %w", err)
	}
	return nil
}

// sameIndex reports how a live index differs from its rebuild.
func sameIndex[K comparable](want, got map[K]*bucket) error {
	for k, g := range got {
		if w := want[k]; !slices.Equal(w.ids(), g.ids()) || len(g.ids()) == 0 {
			return fmt.Errorf("key %v lists %v, its versions give %v", k, g.ids(), w.ids())
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d keys listed, the versions give %d", len(got), len(want))
	}
	return nil
}
