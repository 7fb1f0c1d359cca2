package cc

import (
	"slices"
	"testing"

	"youtopia/internal/query"
)

// TxnAtCommit is what a txn's record held when the txn committed.
type TxnAtCommit struct {
	Number int
	// Deps is a copy of the recorded dependencies, ascending.
	Deps []int
	// Aborts counts the txn's aborts; Committed is false for a txn
	// that never committed.
	Aborts    int
	Committed bool
	// Checker is the checker the txn's reads ran on.
	Checker *query.Checker
}

// CommitWatch holds what every txn's record held at its commit.
type CommitWatch struct {
	at map[int]TxnAtCommit
}

// WatchCommits shows every commit until the test ends, of any
// scheduler, to the returned watch. A txn's record is recycled at its
// commit, so this is where a test reads what the txn recorded.
func WatchCommits(tb testing.TB) *CommitWatch {
	w := &CommitWatch{at: map[int]TxnAtCommit{}}
	testCommitted = func(t *Txn) {
		w.at[t.Number] = TxnAtCommit{Number: t.Number, Deps: slices.Clone(t.deps), Aborts: t.aborts,
			Committed: t.committed, Checker: &t.sc.chk}
	}
	tb.Cleanup(func() { testCommitted = nil })
	return w
}

// Txns returns what txns 1..n held at their commits. A txn the watch
// never saw commit has its number alone.
func (w *CommitWatch) Txns(n int) []TxnAtCommit {
	out := make([]TxnAtCommit, n)
	for i := range out {
		at, ok := w.at[i+1]
		if !ok {
			at = TxnAtCommit{Number: i + 1}
		}
		out[i] = at
	}
	return out
}
