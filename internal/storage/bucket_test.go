package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"youtopia/internal/model"
)

// refBucket is the index bucket the posting list replaced: a Go map per
// indexed value counting the versions of each member, sorted on demand.
// It stays here as the reference the posting list is compared against.
type refBucket struct{ counts map[TupleID]int }

func (b *refBucket) add(id TupleID) { b.counts[id]++ }

func (b *refBucket) remove(id TupleID) bool {
	if c := b.counts[id]; c > 1 {
		b.counts[id] = c - 1
	} else {
		delete(b.counts, id)
	}
	return len(b.counts) == 0
}

func (b *refBucket) ids() []TupleID {
	s := make([]TupleID, 0, len(b.counts))
	for id := range b.counts {
		s = append(s, id)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// refContentKey is the rendered string the content index was keyed by
// before it was keyed by contentHash: equal keys iff equal contents.
func refContentKey(vals []model.Value) string {
	return model.Tuple{Vals: vals}.Key()
}

// retainedIDs is a slice an index read returned, kept with what it read
// as at that moment; by the rule in bucket.go the two never differ.
type retainedIDs struct{ live, copy []TupleID }

func retain(ids []TupleID) retainedIDs { return retainedIDs{ids, slices.Clone(ids)} }

func checkRetained(t *testing.T, kept []retainedIDs) {
	t.Helper()
	for _, k := range kept {
		if !slices.Equal(k.live, k.copy) {
			t.Fatalf("a returned slice changed from %v to %v", k.copy, k.live)
		}
	}
}

// mustAudit fails the test when the store's indexes have drifted from
// its version chains.
func mustAudit(t testing.TB, st *Store) {
	t.Helper()
	if err := st.AuditIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestPostingListMatchesMapMultiset drives a posting list and the old
// map multiset with the same random streams of version adds and
// removes — repeated members, descending IDs, IDs of several stripes,
// removes of non-members — the way the store drives an index: the
// member is added with every version and removed when its last version
// goes. Members, size and the emptied verdict must agree after every
// step, and every slice ids ever returned must still read as it did
// when it was returned.
func TestPostingListMatchesMapMultiset(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &refBucket{counts: make(map[TupleID]int)}
		var b bucket
		var kept []retainedIDs
		pick := func() TupleID {
			stripe, local := int64(rng.Intn(3)), int64(rng.Intn(12)+1)
			return TupleID(stripe<<localIDBits | local)
		}
		next := TupleID(13) // ascending tail appends, stripe 0 first
		for step := 0; step < 300; step++ {
			var id TupleID
			switch r := rng.Intn(10); {
			case r < 2:
				id, next = next, next+1
				ref.add(id)
				b.add(id)
			case r < 6:
				id = pick()
				ref.add(id)
				b.add(id)
			default:
				id = pick()
				if rng.Intn(4) == 0 && len(ref.counts) > 0 {
					id = ref.ids()[len(ref.counts)-1] // the tail
				}
				emptied := ref.remove(id)
				if ref.counts[id] == 0 {
					if got := b.remove(id); got != emptied {
						t.Fatalf("seed %d step %d: remove(%d) emptied = %v, reference %v", seed, step, id, got, emptied)
					}
				}
			}
			if got, want := b.ids(), ref.ids(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d after %d: ids %v, reference %v", seed, step, id, got, want)
			}
			checkRetained(t, kept)
			kept = append(kept, retain(b.ids()))
		}
	}
}

// TestRetainedIDsStayValid is the retained-slice rule of bucket.go
// under the race detector: a reader keeps the slices RelIDs,
// CandidatesByValue and the null index returned, and goes on reading
// them with no lock while a writer appends (Insert), inserts in the
// middle (ReplaceNull rewrites old tuples onto a shared value and a
// shared null) and removes (Abort). The slices must never change — and
// a write into one would also be a data race the detector reports.
func TestRetainedIDsStayValid(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	st := NewStore(raceSchema())
	shared, hub := model.Const("shared"), model.Null(1)
	for i := 0; i < 4; i++ {
		if _, err := st.Load(model.NewTuple("R", model.Const(fmt.Sprint("seed", i)), shared)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Load(model.NewTuple("S", shared, shared, hub)); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < rounds; i++ {
			w := i + 1
			x := st.FreshNull()
			// Low IDs first, then a run of tail appends past them.
			if _, _, _, err := st.Insert(w, model.NewTuple("R", model.Const(fmt.Sprint("k", i)), x)); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 3; j++ {
				if _, _, _, err := st.Insert(w, model.NewTuple("R", model.Const(fmt.Sprint("t", i, j)), shared)); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, _, err := st.Insert(w, model.NewTuple("S", model.Const(fmt.Sprint("s", i)), shared, hub)); err != nil {
				t.Error(err)
				return
			}
			// The old R tuple joins valIdx[1][shared] below the tail, and
			// (every third round) the hub null's list below the S tuples.
			to := shared
			if i%3 == 0 {
				to = hub
			}
			if _, err := st.ReplaceNull(w, x, to); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				st.Abort(w)
			} else if err := st.Commit(w); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	kept := make([]retainedIDs, 256) // the last few hundred slices handed out
	for i := 0; !done.Load(); i++ {
		snap := st.Snap(1 << 30)
		for j, ids := range [][]TupleID{
			snap.RelIDs("R"),
			snap.CandidatesByValue("R", 1, shared),
			snap.CandidatesByValue("S", 1, shared),
			snap.nullCandidates(hub),
		} {
			kept[(4*i+j)%len(kept)] = retain(ids)
		}
		checkRetained(t, kept)
	}
	wg.Wait()
	checkRetained(t, kept)
	mustAudit(t, st)
}

// TestContentIndexForcedCollision runs one random workload — inserts of
// few distinct contents, content deletes, null-replacements that
// collapse duplicates, aborts — on a store whose content hash sends
// every content to the same key and on a store with the real hash.
// Colliding contents only lengthen the candidate lists: set semantics,
// DeleteContent, LookupContent and the collapse of ReplaceNull must
// come out the same, every lookup must return exactly the visible
// tuples whose rendered key (the old index key) matches, and an abort
// must keep a tuple listed while another version of it still hashes
// alike.
func TestContentIndexForcedCollision(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		colliding, plain := NewStore(raceSchema()), NewStore(raceSchema())
		colliding.contentHash = func([]model.Value) uint64 { return 7 }
		var dumps [2]string
		for k, st := range []*Store{colliding, plain} {
			rng := rand.New(rand.NewSource(seed))
			val := func() model.Value {
				if rng.Intn(3) == 0 {
					return model.Null(int64(rng.Intn(4) + 1))
				}
				return model.Const(string(rune('a' + rng.Intn(3))))
			}
			for step := 0; step < 120; step++ {
				w := rng.Intn(3) + 1
				tup := model.NewTuple("R", val(), val())
				var err error
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					var id TupleID
					id, _, _, err = st.Insert(w, tup)
					if got := st.Snap(w).LookupContent(tup); err == nil && !slices.Contains(got, id) {
						t.Fatalf("seed %d step %d: Insert(%s) = %d, LookupContent gives %v", seed, step, tup, id, got)
					}
				case 4:
					_, err = st.DeleteContent(w, tup)
					if got := st.Snap(w).LookupContent(tup); err == nil && len(got) != 0 {
						t.Fatalf("seed %d step %d: %s still found as %v after DeleteContent", seed, step, tup, got)
					}
				case 5, 6:
					x := model.Null(int64(rng.Intn(4) + 1))
					if to := val(); to != x {
						_, err = st.ReplaceNull(w, x, to)
					}
				case 7:
					st.Abort(w)
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				mustAudit(t, st)
			}
			// Every visible tuple is found under its own content only.
			snap := st.Snap(1 << 30)
			byKey := make(map[string][]TupleID)
			snap.ScanRel("R", func(id TupleID, vals []model.Value) bool {
				byKey[refContentKey(vals)] = append(byKey[refContentKey(vals)], id)
				return true
			})
			for _, id := range snap.RelIDs("R") {
				if tup, ok := snap.GetTuple(id); ok {
					if got, want := snap.LookupContent(tup), byKey[refContentKey(tup.Vals)]; !slices.Equal(got, want) {
						t.Fatalf("seed %d: LookupContent(%s) = %v, rendered-key reference %v", seed, tup, got, want)
					}
				}
			}
			dumps[k] = st.Dump(1 << 30)
		}
		if dumps[0] != dumps[1] {
			t.Fatalf("seed %d: colliding hash changed the outcome\ncolliding:\n%s\nreal hash:\n%s", seed, dumps[0], dumps[1])
		}
	}
}
