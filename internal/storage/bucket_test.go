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

// refBucket is the index entry the posting lists replaced: a Go map
// per indexed value counting the versions of each member, sorted on
// demand. It stays here as the reference the posting maps are compared
// against.
type refBucket struct{ counts map[TupleID]int }

func (b *refBucket) add(id TupleID) { b.counts[id]++ }

// remove drops one version of id and reports whether it was the last.
func (b *refBucket) remove(id TupleID) bool {
	c := b.counts[id]
	if c > 1 {
		b.counts[id] = c - 1
	} else {
		delete(b.counts, id)
	}
	return c == 1
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

// TestPostingListMatchesMapMultiset drives a posting map, key by key,
// and a plain member list with the same random streams of version adds
// and removes as the old map multisets — repeated members, descending
// IDs, IDs of several stripes, removes of non-members — the way the
// store drives an index: the member is added with every version and
// removed when its last version goes. Members, counts and keys must
// agree after every step, the map's layout must pass the audit, and
// every slice ever returned must still read as it did when it was
// returned. Keys keep going from empty to one member, to a list and
// back, and the list table must never outgrow the most lists that were
// alive at once: freed slots are reused.
func TestPostingListMatchesMapMultiset(t *testing.T) {
	const nkeys = 4
	var shrinks, reuses int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]*refBucket, nkeys+1) // the last drives the member list
		for k := range refs {
			refs[k] = &refBucket{counts: make(map[TupleID]int)}
		}
		var p postings
		var list []TupleID
		var kept []retainedIDs
		pick := func() TupleID {
			stripe, local := int64(rng.Intn(3)), int64(rng.Intn(12)+1)
			return TupleID(stripe<<localIDBits | local)
		}
		next := TupleID(13) // ascending tail appends, stripe 0 first
		peak := 0
		for step := 0; step < 400; step++ {
			k := rng.Intn(nkeys + 1)
			ref := refs[k]
			var id TupleID
			switch r := rng.Intn(10); {
			case r < 5:
				if r < 2 {
					id, next = next, next+1
				} else {
					id = pick()
				}
				if k == nkeys {
					list = addID(list, id)
				} else {
					if ref.counts[id] == 0 && len(ref.counts) == 1 && len(p.free) > 0 {
						reuses++
					}
					p.add(uint64(k), id)
				}
				ref.add(id)
			default:
				id = pick()
				if rng.Intn(4) == 0 && len(ref.counts) > 0 {
					id = ref.ids()[len(ref.counts)-1] // the tail
				}
				if !ref.remove(id) {
					break
				}
				if k == nkeys {
					list = removeID(list, id)
				} else {
					if p.count(uint64(k)) == 2 {
						shrinks++
					}
					p.remove(uint64(k), id)
				}
			}
			var want postings
			lists := 0
			for k, ref := range refs[:nkeys] {
				ids := ref.ids()
				for _, id := range ids {
					want.add(uint64(k), id)
				}
				got := p.get(uint64(k), new([1]TupleID))
				if !slices.Equal(got, ids) || p.count(uint64(k)) != len(ids) {
					t.Fatalf("seed %d step %d after %d: key %d lists %v (count %d), reference %v", seed, step, id, k, got, p.count(uint64(k)), ids)
				}
				kept = append(kept, retain(got))
				if len(ids) > 1 {
					lists++
				}
			}
			if err := sameIndex(&want, &p); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if want := refs[nkeys].ids(); !slices.Equal(list, want) {
				t.Fatalf("seed %d step %d after %d: member list %v, reference %v", seed, step, id, list, want)
			}
			peak = max(peak, lists)
			if len(p.lists) > peak {
				t.Fatalf("seed %d step %d: %d list slots, at most %d lists were ever alive at once", seed, step, len(p.lists), peak)
			}
			checkRetained(t, kept)
			kept = append(kept, retain(list))
		}
	}
	if shrinks == 0 || reuses == 0 {
		t.Fatalf("the streams never took a list back to one member (%d) or reused a freed slot (%d)", shrinks, reuses)
	}
}

// TestPostingTransitions walks one key through every shape it can take
// — empty, one member in the map slot, a list, one member again, empty
// — and a second key through the list slot the first one freed.
func TestPostingTransitions(t *testing.T) {
	var p postings
	var one [1]TupleID
	check := func(k uint64, want []TupleID, inSlot bool) {
		t.Helper()
		if got := p.get(k, &one); !slices.Equal(got, want) || p.count(k) != len(want) {
			t.Fatalf("key %d lists %v (count %d), want %v", k, got, p.count(k), want)
		}
		if v, ok := p.m[k]; ok != (len(want) > 0) || ok && (v > 0) != inSlot {
			t.Fatalf("key %d maps to %d (present %v), want a member in the slot: %v", k, v, ok, inSlot)
		}
	}
	check(1, nil, false)
	p.add(1, 7)
	check(1, []TupleID{7}, true)
	p.add(1, 5)
	check(1, []TupleID{5, 7}, false)
	held := p.get(1, &one)
	p.remove(1, 7)
	check(1, []TupleID{5}, true)
	if len(p.free) != 1 || p.lists[p.free[0]] != nil {
		t.Fatalf("the list slot was not freed: lists %v, free %v", p.lists, p.free)
	}
	p.add(2, 9)
	p.add(2, 3)
	check(2, []TupleID{3, 9}, false)
	if len(p.lists) != 1 || len(p.free) != 0 {
		t.Fatalf("key 2 did not reuse the freed slot: lists %v, free %v", p.lists, p.free)
	}
	if !slices.Equal(held, []TupleID{5, 7}) {
		t.Fatalf("a list held across demotion and slot reuse now reads %v", held)
	}
	p.remove(1, 5)
	check(1, nil, false)
	if len(p.m) != 1 {
		t.Fatalf("%d keys, want 1", len(p.m))
	}
}

// TestRetainedIDsStayValid is the retained-slice rule of bucket.go
// under the race detector: a reader keeps the slices RelIDs,
// CandidatesByValue and the null index returned, and goes on reading
// them with no lock while a writer appends (Insert), inserts in the
// middle (ReplaceNull rewrites old tuples onto a shared value and a
// shared null) and removes (Abort). One key has a single member between
// rounds; the writer promotes it to a list and aborts it back, while
// the reader holds what it read in either shape. The slices must never
// change — and a write into one would also be a data race the detector
// reports.
func TestRetainedIDsStayValid(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	st := NewStore(raceSchema())
	shared, hub, solo := model.Const("shared"), model.Null(1), model.Const("solo")
	if _, err := st.Load(model.NewTuple("S", solo, solo, solo)); err != nil {
		t.Fatal(err)
	}
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
			if i%2 == 0 { // aborted below: solo goes back to one member
				if _, _, _, err := st.Insert(w, model.NewTuple("S", model.Const(fmt.Sprint("o", i)), solo, solo)); err != nil {
					t.Error(err)
					return
				}
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
			snap.CandidatesByValue("R", 1, shared, new([1]TupleID)),
			snap.CandidatesByValue("S", 1, shared, new([1]TupleID)),
			snap.CandidatesByValue("S", 1, solo, new([1]TupleID)),
			st.nullIDs(hub, new([1]TupleID)),
		} {
			kept[(5*i+j)%len(kept)] = retain(ids)
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

// TestIndexProbeAllocFree pins that an index probe allocates nothing,
// whether the key has one member (returned in the caller's buffer) or
// a list (returned as itself): value candidates, the content lookup of
// Insert's duplicate check, and the null index.
func TestIndexProbeAllocFree(t *testing.T) {
	st := benchStore(t, 200)
	for i := 0; i < 4; i++ {
		if _, err := st.Load(tup("R", n(1), c(fmt.Sprint("k", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Load(tup("R", n(2), c("lone"))); err != nil {
		t.Fatal(err)
	}
	snap := st.Snap(1)
	var one [1]TupleID
	dup := tup("S", c("code7"), c("loc7"), c("city7"))
	for _, probe := range []struct {
		name string
		want int // members the probe returns; 0 skips the check
		fn   func() []TupleID
	}{
		{"value, one member", 1, func() []TupleID { return snap.CandidatesByValue("S", 2, c("city7"), &one) }},
		{"value, list", 4, func() []TupleID { return snap.CandidatesByValue("S", 0, c("code7"), &one) }},
		{"null, one member", 1, func() []TupleID { return st.nullIDs(n(2), &one) }},
		{"null, list", 4, func() []TupleID { return st.nullIDs(n(1), &one) }},
		{"content, duplicate insert", 0, func() []TupleID {
			if _, _, inserted, err := st.Insert(1, dup); inserted || err != nil {
				t.Fatalf("duplicate insert: inserted %v, %v", inserted, err)
			}
			return nil
		}},
	} {
		if got := probe.fn(); probe.want > 0 && len(got) != probe.want {
			t.Fatalf("%s: %d members, want %d", probe.name, len(got), probe.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { probe.fn() }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per probe, want 0", probe.name, allocs)
		}
	}
}
