package storage

import (
	"math"
	"slices"
)

// This file is the version horizon: the rule that decides when
// committed history can no longer be read, and the trimming that drops
// it. The rule and the argument for it are in the package comment.

// horizon bounds what a reader can still see: a committed version v'
// that supersedes older versions of its tuple hides them from every
// reader that can still exist once v'.writer < writer and v'.seq < seq.
// writer is the lowest uncommitted writer with live writes, seq the
// lowest first-write sequence number among them minus one; both are
// unbounded when no writer is live.
type horizon struct {
	writer int
	seq    int64
}

// releases reports whether the horizon has passed version v.
func (h horizon) releases(v *version) bool {
	return v.writer < h.writer && v.seq < h.seq
}

// idle reports whether no uncommitted writer has a live write.
func (h horizon) idle() bool { return h.writer == math.MaxInt }

// horizon computes the store's horizon. Callers hold the lock.
func (st *Store) horizon() horizon {
	h := horizon{writer: math.MaxInt, seq: math.MaxInt64}
	for w, lw := range st.writerStripes {
		h.writer = min(h.writer, w)
		h.seq = min(h.seq, lw.first-1)
	}
	return h
}

// newestCommitted returns the index of the newest committed version in
// the chain vs, or -1.
func (st *Store) newestCommitted(vs []version) int {
	for i := len(vs) - 1; i >= 0; i-- {
		if st.isCommitted(vs[i].writer) {
			return i
		}
	}
	return -1
}

// garbage reports whether the chain vs holds history some horizon may
// release: versions below its newest committed one, or that version
// being a tombstone.
func (st *Store) garbage(vs []version) bool {
	top := st.newestCommitted(vs)
	return top > 0 || (top == 0 && vs[0].vals == nil)
}

// trim drops the history of tuple id that h releases: every version
// below the newest committed one, each taken out of the indexes, and
// then the tuple itself when all that is left is a committed tombstone.
// It reports whether garbage the horizon did not release remains, which
// the caller puts on the stripe's pending list. A tuple that is not a
// member has none. Callers hold the write lock.
func (st *Store) trim(s *stripe, id TupleID, h horizon) bool {
	if st.noTrim {
		return false
	}
	i, ok := s.find(id)
	if !ok {
		return false
	}
	vs := s.chain(i)
	top := st.newestCommitted(vs)
	if top < 0 {
		return false
	}
	rest := vs[top:]
	if !h.releases(&rest[0]) {
		return top > 0 || vs[0].vals == nil
	}
	for j := range top {
		st.unindexVersion(s, id, rest, s.valsOf(&vs[j]))
	}
	// A tombstone under uncommitted writes stays until they settle.
	tomb := rest[0].vals == nil
	switch {
	case tomb && len(rest) == 1:
		s.removeMember(i)
		return false
	case top > 0:
		s.setChain(i, slices.Delete(vs, 0, top))
	}
	return tomb
}

// trimOrDefer trims tuple id, which a committed write has just touched,
// computing the horizon only when there is garbage. Callers hold the
// write lock.
func (st *Store) trimOrDefer(s *stripe, id TupleID) {
	if st.noTrim {
		return
	}
	if i, ok := s.find(id); !ok || !st.garbage(s.chain(i)) {
		return
	}
	if st.trim(s, id, st.horizon()) {
		had := len(s.pending) > 0
		s.pending = append(s.pending, id)
		st.notePending(s, had)
	}
}

// trimStripe is a commit's trimming of one stripe: it drains the
// pending list and trims every tuple the committing writers logged
// there, keeping on the list what h does not release. The writers'
// logs stay for the caller to retire (Store.retireLogs). Callers hold
// the write lock and have already marked the writers committed.
func (st *Store) trimStripe(s *stripe, writers []int, h horizon) {
	had := len(s.pending) > 0
	kept := s.pending[:0]
	for _, id := range s.pending {
		if st.trim(s, id, h) {
			kept = append(kept, id)
		}
	}
	for _, w := range writers {
		for i := range s.logs[w] {
			id := s.logs[w][i].ID
			if st.trim(s, id, h) {
				kept = append(kept, id)
			}
		}
	}
	if len(kept) > 1 {
		slices.Sort(kept)
		kept = slices.Compact(kept)
	}
	s.pending = kept
	st.notePending(s, had)
}

// notePending keeps pendingIn in step with the stripe's pending list,
// which was non-empty before the caller's change iff had. Callers hold
// the write lock.
func (st *Store) notePending(s *stripe, had bool) {
	if has := len(s.pending) > 0; has != had {
		if has {
			st.pendingIn = append(st.pendingIn, s.idx)
		} else {
			st.pendingIn = slices.DeleteFunc(st.pendingIn, func(i int) bool { return i == s.idx })
		}
	}
}

// settle drains the pending lists once no writer is live, so that
// history whose last holder aborted does not wait for the next commit.
// Callers hold the write lock.
func (st *Store) settle() {
	if len(st.pendingIn) == 0 {
		return
	}
	h := st.horizon()
	if !h.idle() {
		return
	}
	for _, s := range st.byIdx {
		if len(s.pending) > 0 {
			st.trimStripe(s, nil, h)
		}
	}
}
