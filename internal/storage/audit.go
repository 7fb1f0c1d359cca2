package storage

import (
	"fmt"
	"slices"
)

// AuditIndexes checks each stripe's tuple table (checkTable) and the
// secondary indexes against the version chains they are derived from.
// It rebuilds every index from the chains, in ascending tuple-ID order,
// and requires the live one to hold the same entries: a tuple is listed
// under a column constant's key, a content key or a labeled null
// exactly when one of its versions carries it. Each index must keep its
// layout (postings.checkLayout): entries strictly ascending across its
// pages, no empty page, no two neighbouring pages that fit in one, and
// its distinct-key count. It also checks the horizon: a tuple holding
// committed garbage — a version below its newest committed one, or a
// committed tombstone — must be on its stripe's pending list, and with
// no uncommitted writer live every pending list is empty, so every
// tuple has exactly one version and no tombstone is left. It holds the
// store's read lock and costs a pass over the whole store, so it is for
// tests and on-demand diagnosis, not for a hot path.
func (st *Store) AuditIndexes() error {
	st.rlock()
	defer st.runlock()
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
		for p, id := range s.members() {
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
					if val.IsNull() {
						nulls.add(val.Hash(), id)
					} else {
						cols[i].add(st.key(val.Hash()), id)
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
	if err := sameIndex(&nulls, &st.nullIdx); err != nil {
		return fmt.Errorf("storage: audit null index: %w", err)
	}
	return nil
}

// sameIndex reports how a live index differs from its rebuild, or
// breaks its layout.
func sameIndex[W uint32 | uint64](want, got *postings[W]) error {
	if err := got.checkLayout(); err != nil {
		return err
	}
	g, w := got.entries(), want.entries()
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Errorf("entry %d is (%d, %d), its versions give (%d, %d)", i, g[i][0], g[i][1], w[i][0], w[i][1])
		}
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d entries listed, the versions give %d", len(g), len(w))
	}
	return nil
}

// entries returns the index's (key, slot) entries in order.
func (p *postings[W]) entries() [][2]W {
	var out [][2]W
	for _, pg := range p.pages {
		for i := range pg.len() {
			out = append(out, [2]W{pg.keys[i], pg.slots[i]})
		}
	}
	return out
}

// checkTable reports the first breach of the tuple table's layout: an
// empty page, members out of strictly ascending ID order within a page
// or across pages, a used slot past a free one or a free slot with a
// record, two neighbouring pages that fit in one, a member count that
// is off, a marker without a chain of two or more versions, a chain
// without a marker or out of (writer, seq) order. Callers hold the
// lock.
func (s *stripe) checkTable() error {
	members, markers := 0, 0
	var last TupleID
	for k, pg := range s.pages {
		n := pg.len()
		if n == 0 {
			return fmt.Errorf("page %d is empty", k)
		}
		if k > 0 && s.pages[k-1].len()+n <= pageSize {
			return fmt.Errorf("pages %d and %d hold %d members, which fit in one page", k-1, k, s.pages[k-1].len()+n)
		}
		for i, id := range pg.ids {
			if i >= n {
				if id != 0 || pg.recs[i] != (version{}) {
					return fmt.Errorf("page %d holds %d members and slot %d in use", k, n, i)
				}
				continue
			}
			if id <= last {
				return fmt.Errorf("member %d at page %d slot %d follows %d", id, k, i, last)
			}
			last = id
			members++
			if pg.recs[i].writer != chained {
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
	}
	if members != s.count {
		return fmt.Errorf("%d members counted as %d", members, s.count)
	}
	if markers != len(s.chains) {
		return fmt.Errorf("%d chains for %d marked members", len(s.chains), markers)
	}
	return nil
}
