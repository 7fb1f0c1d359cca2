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

// horizon computes the store's horizon. Safe under any stripe lock.
func (st *Store) horizon() horizon {
	h := horizon{writer: math.MaxInt, seq: math.MaxInt64}
	st.commitMu.RLock()
	for w, lw := range st.writerStripes {
		h.writer = min(h.writer, w)
		h.seq = min(h.seq, lw.first-1)
	}
	st.commitMu.RUnlock()
	return h
}

// newestCommitted returns the index of the newest committed version of
// tr, or -1.
func (st *Store) newestCommitted(tr *tupleRec) int {
	for i := len(tr.versions) - 1; i >= 0; i-- {
		if st.isCommitted(tr.versions[i].writer) {
			return i
		}
	}
	return -1
}

// garbage reports whether tr holds history some horizon may release:
// versions below its newest committed one, or that version being a
// tombstone.
func (st *Store) garbage(tr *tupleRec) bool {
	top := st.newestCommitted(tr)
	return top > 0 || (top == 0 && tr.versions[0].deleted)
}

// trim drops the history of tuple id, tr, that h releases: every
// version below the newest committed one, each taken out of the indexes
// as it goes, and then the tuple itself when all that is left is a
// committed tombstone. It reports whether garbage the horizon did not
// release remains, which the caller puts on the stripe's pending list.
// Callers hold the stripe's write lock.
func (st *Store) trim(s *stripe, id TupleID, tr *tupleRec, h horizon) bool {
	if st.noTrim {
		return false
	}
	top := st.newestCommitted(tr)
	if top < 0 {
		return false
	}
	if !h.releases(&tr.versions[top]) {
		return top > 0 || tr.versions[0].deleted
	}
	for ; top > 0; top-- {
		vals := tr.versions[0].vals
		tr.versions = slices.Delete(tr.versions, 0, 1)
		st.unindexVersion(s, id, tr, vals)
	}
	if !tr.versions[0].deleted {
		return false
	}
	if len(tr.versions) > 1 {
		return true // uncommitted writes above a tombstone
	}
	delete(s.tuples, id)
	s.ids = removeID(s.ids, id)
	return false
}

// trimOrDefer trims tuple id, tr, which a committed write has just
// touched, computing the horizon only when there is garbage. Callers
// hold the stripe's write lock.
func (st *Store) trimOrDefer(s *stripe, id TupleID, tr *tupleRec) {
	if st.noTrim || !st.garbage(tr) {
		return
	}
	if st.trim(s, id, tr, st.horizon()) {
		had := len(s.pending) > 0
		s.pending = append(s.pending, id)
		st.notePending(s, had)
	}
}

// trimStripe is a commit's trimming of one locked stripe: it drains
// the pending list and trims every tuple the committing writers logged
// there, keeping on the list what h does not release, then retires the
// writers' logs there. Callers hold the stripe's write lock and have
// already marked the writers committed.
func (st *Store) trimStripe(s *stripe, writers []int, h horizon) {
	had := len(s.pending) > 0
	kept := s.pending[:0]
	for _, id := range s.pending {
		if tr := s.tuples[id]; tr != nil && st.trim(s, id, tr, h) {
			kept = append(kept, id)
		}
	}
	for _, w := range writers {
		for i := range s.logs[w] {
			id := s.logs[w][i].ID
			if tr := s.tuples[id]; tr != nil && st.trim(s, id, tr, h) {
				kept = append(kept, id)
			}
		}
		delete(s.logs, w)
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
// the stripe's write lock.
func (st *Store) notePending(s *stripe, had bool) {
	if has := len(s.pending) > 0; has != had {
		st.commitMu.Lock()
		if has {
			st.pendingIn = append(st.pendingIn, s.idx)
		} else {
			st.pendingIn = slices.DeleteFunc(st.pendingIn, func(i int) bool { return i == s.idx })
		}
		st.commitMu.Unlock()
	}
}

// settle drains the pending lists once no writer is live,
// so that history whose last holder aborted does not wait for the next
// commit. It locks the stripes with pending entries in ascending order,
// as a commit batch would.
func (st *Store) settle() {
	st.commitMu.RLock()
	stripes := slices.Clone(st.pendingIn)
	st.commitMu.RUnlock()
	if len(stripes) == 0 || !st.horizon().idle() {
		return
	}
	slices.Sort(stripes)
	st.lockStripes(stripes)
	defer st.unlockStripes(stripes)
	h := st.horizon()
	for _, si := range stripes {
		s := st.byIdx[si]
		st.trimStripe(s, nil, h)
		s.commitMut.Add(1)
	}
}
