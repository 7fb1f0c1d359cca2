package storage

import (
	"fmt"
	"slices"
)

// AuditIndexes checks each stripe's tuple table (checkTable) and the
// secondary indexes against the version chains they are derived from.
// It rebuilds every index from the chains, in
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
		if err := s.checkTable(); err != nil {
			return fmt.Errorf("storage: audit %s: %w", s.rel, err)
		}
		content := postings[uint32]{base: s.base()}
		cols := make([]postings[uint32], len(s.valIdx))
		for i := range cols {
			cols[i].base = s.base()
		}
		if idle && len(s.pending) > 0 && !st.noTrim {
			return fmt.Errorf("storage: audit %s: no writer is live, yet trims of %v are pending", s.rel, s.pending)
		}
		for p, id := range s.ids {
			vs := s.chain(p)
			if !st.noTrim && st.garbage(vs) && !slices.Contains(s.pending, id) {
				return fmt.Errorf("storage: audit %s: tuple %d holds history the horizon may release (%d versions) and no trim is pending", s.rel, id, len(vs))
			}
			for j := range vs {
				vals := s.valsOf(&vs[j])
				if vals == nil {
					continue
				}
				for i, val := range vals {
					cols[i].add(st.key(val.Hash()), id)
					if val.IsNull() {
						nulls.add(val.Hash(), id)
					}
				}
				content.add(st.contentKey(vals), id)
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

// checkTable reports the first breach of the tuple table's layout: a
// member list that is not strictly ascending, a record table of another
// length, a marker without a chain of two or more versions, a chain
// without a marker or out of (writer, seq) order. Callers hold the
// stripe's lock.
func (s *stripe) checkTable() error {
	if len(s.recs) != len(s.ids) {
		return fmt.Errorf("%d records for %d members", len(s.recs), len(s.ids))
	}
	markers := 0
	for i, id := range s.ids {
		if i > 0 && id <= s.ids[i-1] {
			return fmt.Errorf("member list %v is not strictly ascending", s.ids)
		}
		if s.recs[i].writer != chained {
			continue
		}
		markers++
		vs, ok := s.chains[id]
		if !ok || len(vs) < 2 {
			return fmt.Errorf("tuple %d is marked chained but has the chain %v", id, vs)
		}
		for j := 1; j < len(vs); j++ {
			if a, b := vs[j-1], vs[j]; a.writer > b.writer || a.writer == b.writer && a.seq >= b.seq {
				return fmt.Errorf("chain of tuple %d is out of (writer, seq) order", id)
			}
		}
	}
	if markers != len(s.chains) {
		return fmt.Errorf("%d chains for %d marked members", len(s.chains), markers)
	}
	return nil
}
