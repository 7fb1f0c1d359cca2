package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
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
// agree after every step, and the map's layout must pass the audit.
// Keys keep going from empty to one member, to a list and
// back, and the list table must never outgrow the most lists that were
// alive at once: freed slots are reused. Both widths run: the
// full-width map of the null index over IDs of three stripes, and a
// stripe index, whose slots hold counters, over the IDs of its stripe.
func TestPostingListMatchesMapMultiset(t *testing.T) {
	t.Run("full-width", func(t *testing.T) { postingsMatchMultiset(t, postings[uint64]{}, 3) })
	t.Run("stripe", func(t *testing.T) { postingsMatchMultiset(t, postings[uint32]{base: 2 << localIDBits}, 1) })
}

// postingsMatchMultiset is TestPostingListMatchesMapMultiset for an
// empty index with the given base and members in that many stripes
// from it on.
func postingsMatchMultiset[W uint32 | uint64](t *testing.T, empty postings[W], stripes int) {
	const nkeys = 4
	var shrinks, reuses int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]*refBucket, nkeys+1) // the last drives the member list
		for k := range refs {
			refs[k] = &refBucket{counts: make(map[TupleID]int)}
		}
		p := empty
		var list []TupleID
		pick := func() TupleID {
			stripe, local := TupleID(rng.Intn(stripes)), TupleID(rng.Intn(12)+1)
			return p.base + stripe<<localIDBits + local
		}
		next := p.base + 13 // ascending tail appends, first stripe first
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
					p.add(W(k), id)
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
					if p.count(W(k)) == 2 {
						shrinks++
					}
					p.remove(W(k), id)
				}
			}
			want := postings[W]{base: p.base}
			lists := 0
			for k, ref := range refs[:nkeys] {
				ids := ref.ids()
				for _, id := range ids {
					want.add(W(k), id)
				}
				got := p.get(W(k), new([1]TupleID))
				if !slices.Equal(got, ids) || p.count(W(k)) != len(ids) {
					t.Fatalf("seed %d step %d after %d: key %d lists %v (count %d), reference %v", seed, step, id, k, got, p.count(W(k)), ids)
				}
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
		}
	}
	if shrinks == 0 || reuses == 0 {
		t.Fatalf("the streams never took a list back to one member (%d) or reused a freed slot (%d)", shrinks, reuses)
	}
}

// TestPostingTransitions walks one key of a stripe index through every
// shape it can take — empty, one member in the map slot as its
// stripe-local counter, a list of full IDs, one member again, empty —
// and a second key through the list slot the first one freed.
func TestPostingTransitions(t *testing.T) {
	const base = 5 << localIDBits
	p := postings[uint32]{base: base}
	var one [1]TupleID
	check := func(k uint32, want []TupleID, inSlot bool) {
		t.Helper()
		if got := p.get(k, &one); !slices.Equal(got, want) || p.count(k) != len(want) {
			t.Fatalf("key %d lists %v (count %d), want %v", k, got, p.count(k), want)
		}
		v, ok := p.m[k]
		if ok != (len(want) > 0) || ok && (v&listTag[uint32]() == 0) != inSlot {
			t.Fatalf("key %d maps to %#x (present %v), want a member in the slot: %v", k, v, ok, inSlot)
		}
		if inSlot && TupleID(v) != want[0]-base {
			t.Fatalf("key %d holds %d in its slot, want the counter %d", k, v, want[0]-base)
		}
	}
	check(1, nil, false)
	p.add(1, base+7)
	check(1, []TupleID{base + 7}, true)
	p.add(1, base+5)
	check(1, []TupleID{base + 5, base + 7}, false)
	p.remove(1, base+7)
	check(1, []TupleID{base + 5}, true)
	if len(p.free) != 1 || p.lists[p.free[0]] != nil {
		t.Fatalf("the list slot was not freed: lists %v, free %v", p.lists, p.free)
	}
	p.add(2, base+9)
	p.add(2, base+3)
	check(2, []TupleID{base + 3, base + 9}, false)
	if len(p.lists) != 1 || len(p.free) != 0 {
		t.Fatalf("key 2 did not reuse the freed slot: lists %v, free %v", p.lists, p.free)
	}
	p.remove(1, base+5)
	check(1, nil, false)
	if len(p.m) != 1 {
		t.Fatalf("%d keys, want 1", len(p.m))
	}
}

// TestProbeRowsDuringInPlaceWrites runs probes and scans of two
// stripes, and the null index, while a writer changes their lists in
// place: it appends (Insert), inserts in the middle (ReplaceNull
// rewrites old tuples onto a shared value and a shared null), removes
// from the middle (Abort), and takes one key from one member to two and
// back (an aborted insert of solo). Every write, with what it made, is
// recorded in the writes history under a test lock the writer holds
// around it.
//
//   - A locked reader probes under that lock, so nothing moves while it
//     checks: the rows must be exactly the visible ones the probe asks
//     for, found by a separate scan (ScanRel), with their values.
//   - Unlocked readers probe while the writer runs, then take the lock
//     and check that every row is an (ID, values) pair the history
//     holds — a write made it, and no row pairs one tuple's ID with
//     another's values — and that the rows they kept from earlier
//     probes still read as they did.
//
// Under the race detector a reader still reading an index list the
// writer shifts fails too.
func TestProbeRowsDuringInPlaceWrites(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	st := NewStore(raceSchema())
	shared, hub, solo := model.Const("shared"), model.Null(1), model.Const("solo")

	var mu sync.RWMutex // held by the writer around each write
	history := make(map[TupleID]map[string]bool)
	record := func(id TupleID, vals []model.Value) {
		if vals == nil {
			return
		}
		if history[id] == nil {
			history[id] = make(map[string]bool)
		}
		history[id][refContentKey(vals)] = true
	}
	write := func(op func() ([]WriteRec, error)) bool {
		mu.Lock()
		defer mu.Unlock()
		recs, err := op()
		for _, w := range recs {
			record(w.ID, w.After)
		}
		if err != nil {
			t.Error(err)
		}
		return err == nil
	}
	insert := func(w int, tup model.Tuple) bool {
		return write(func() ([]WriteRec, error) {
			_, rec, _, err := st.Insert(w, tup)
			return []WriteRec{rec}, err
		})
	}
	for _, tup := range []model.Tuple{
		model.NewTuple("S", solo, solo, solo),
		model.NewTuple("R", model.Const("seed0"), shared), model.NewTuple("R", model.Const("seed1"), shared),
		model.NewTuple("R", model.Const("seed2"), shared), model.NewTuple("R", model.Const("seed3"), shared),
		model.NewTuple("S", shared, shared, hub),
	} {
		if !insert(0, tup) {
			return
		}
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
			if !insert(w, model.NewTuple("R", model.Const(fmt.Sprint("k", i)), x)) {
				return
			}
			for j := 0; j < 3; j++ {
				if !insert(w, model.NewTuple("R", model.Const(fmt.Sprint("t", i, j)), shared)) {
					return
				}
			}
			if !insert(w, model.NewTuple("S", model.Const(fmt.Sprint("s", i)), shared, hub)) {
				return
			}
			if i%2 == 0 && !insert(w, model.NewTuple("S", model.Const(fmt.Sprint("o", i)), solo, solo)) {
				return // aborted below: solo goes back to one member
			}
			// The old R tuple joins valIdx[1][shared] below the tail, and
			// (every third round) the hub null's list below the S tuples.
			to := shared
			if i%3 == 0 {
				to = hub
			}
			if !write(func() ([]WriteRec, error) { return st.ReplaceNull(w, x, to) }) {
				return
			}
			if !write(func() ([]WriteRec, error) {
				if i%2 == 0 {
					st.Abort(w)
					return nil, nil
				}
				return nil, st.Commit(w)
			}) {
				return
			}
		}
	}()

	type probe struct {
		rel string
		col int
		v   model.Value
	}
	probes := []probe{{"R", 1, shared}, {"S", 1, shared}, {"S", 1, solo}, {"S", 2, hub}, {"R", -1, model.Value{}}, {"S", -1, model.Value{}}}
	wants := func(sn *Snapshot, p probe) []Row {
		var want []Row
		sn.ScanRel(p.rel, func(id TupleID, vals []model.Value) bool {
			if p.col < 0 || vals[p.col] == p.v {
				want = append(want, Row{id, vals})
			}
			return true
		})
		return want
	}
	sameRows := func(a, b []Row) bool {
		return slices.EqualFunc(a, b, func(x, y Row) bool { return x.ID == y.ID && slices.Equal(x.Vals, y.Vals) })
	}

	// The locked reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var rows []Row
		for !done.Load() {
			mu.RLock()
			sn := st.Snap(1 << 30)
			for _, p := range probes {
				rows, _ = sn.ProbeRows(p.rel, p.col, p.v, rows[:0], nil)
				if want := wants(sn, p); !sameRows(rows, want) {
					t.Errorf("probe %v gives %v, the scan %v", p, rows, want)
				}
			}
			ids := sn.TuplesWithNull(hub)
			var want []TupleID // R's IDs sort below S's
			for _, rel := range []string{"R", "S"} {
				sn.ScanRel(rel, func(id TupleID, vals []model.Value) bool {
					if slices.Contains(vals, hub) {
						want = append(want, id)
					}
					return true
				})
			}
			if !slices.Equal(ids, want) {
				t.Errorf("TuplesWithNull(%s) = %v, the scan %v", hub, ids, want)
			}
			mu.RUnlock()
			if t.Failed() {
				return
			}
		}
	}()

	// The unlocked readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type keptRow struct {
				row Row
				key string
			}
			var rows []Row
			var kept []keptRow
			for i := 0; !done.Load(); i++ {
				p := probes[(i+r)%len(probes)]
				rows, _ = st.Snap(1<<30).ProbeRows(p.rel, p.col, p.v, rows[:0], nil)
				st.rlock()
				nulls := st.appendNullIDs(nil, hub)
				st.runlock()
				mu.RLock()
				for _, row := range rows {
					if !history[row.ID][refContentKey(row.Vals)] || p.col >= 0 && row.Vals[p.col] != p.v {
						t.Errorf("probe %v gives row %d %v, which no write made", p, row.ID, row.Vals)
					}
				}
				for _, id := range nulls {
					if len(history[id]) == 0 {
						t.Errorf("the null index lists %d, which no write made", id)
					}
				}
				mu.RUnlock()
				for _, k := range kept {
					if refContentKey(k.row.Vals) != k.key {
						t.Errorf("row %d changed from %s to %v", k.row.ID, k.key, k.row.Vals)
					}
				}
				if len(rows) > 0 {
					row := rows[i%len(rows)]
					kept = append(kept[:min(len(kept), 63)], keptRow{row, refContentKey(row.Vals)})
				}
				if t.Failed() {
					return
				}
			}
		}()
	}
	wg.Wait()
	mustAudit(t, st)
}

// TestContentIndexForcedCollision runs one random workload — inserts of
// few distinct contents, content deletes, null-replacements that
// collapse duplicates, aborts, and commits that trim history — on a
// store whose stripe index keys all fold to one constant and on a store
// with the real fold. Colliding keys only lengthen the candidate lists:
// set semantics, DeleteContent, the content lookup, the collapse of
// ReplaceNull, value probes and MoreSpecific must come out the same,
// every lookup must return exactly the visible tuples whose rendered
// key (the old content index key) matches, and an abort or a trim must
// keep a tuple listed while another version of it still has the key.
func TestContentIndexForcedCollision(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		colliding, plain := NewStore(raceSchema()), NewStore(raceSchema())
		colliding.collideKeys = true
		var dumps, probes [2]string
		for k, st := range []*Store{colliding, plain} {
			rng := rand.New(rand.NewSource(seed))
			val := func() model.Value {
				if rng.Intn(3) == 0 {
					return model.Null(int64(rng.Intn(4) + 1))
				}
				return model.Const(string(rune('a' + rng.Intn(3))))
			}
			next := 1 // writers commit in priority order, so each is above the last commit
			for step := 0; step < 120; step++ {
				w := next + rng.Intn(3)
				tup := model.NewTuple("R", val(), val())
				var err error
				switch rng.Intn(9) {
				case 0, 1, 2, 3:
					var id TupleID
					id, _, _, err = st.Insert(w, tup)
					if got := lookupContent(st.Snap(w), tup); err == nil && !slices.Contains(got, id) {
						t.Fatalf("seed %d step %d: Insert(%s) = %d, the content lookup gives %v", seed, step, tup, id, got)
					}
				case 4:
					_, err = st.DeleteContent(w, tup)
					if got := lookupContent(st.Snap(w), tup); err == nil && len(got) != 0 {
						t.Fatalf("seed %d step %d: %s still found as %v after DeleteContent", seed, step, tup, got)
					}
				case 5, 6:
					x := model.Null(int64(rng.Intn(4) + 1))
					if to := val(); to != x {
						_, err = st.ReplaceNull(w, x, to)
					}
				case 7:
					st.Abort(w)
				case 8:
					err = st.Commit(next)
					next++
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				mustAudit(t, st)
			}
			// Every visible tuple is found under its own content only, and
			// under each of its values with the tuples carrying that value.
			snap := st.Snap(1 << 30)
			byKey := make(map[string][]TupleID)
			snap.ScanRel("R", func(id TupleID, vals []model.Value) bool {
				byKey[refContentKey(vals)] = append(byKey[refContentKey(vals)], id)
				return true
			})
			var answers strings.Builder
			for _, id := range rowIDs(snap, "R", -1, model.Value{}) {
				tup, ok := snap.GetTuple(id)
				if !ok {
					continue
				}
				if got, want := lookupContent(snap, tup), byKey[refContentKey(tup.Vals)]; !slices.Equal(got, want) {
					t.Fatalf("seed %d: content lookup of %s = %v, rendered-key reference %v", seed, tup, got, want)
				}
				for col, v := range tup.Vals {
					carriers := rowIDs(snap, "R", col, v)
					if !slices.Contains(carriers, id) {
						t.Fatalf("seed %d: %s is no candidate for its value %s in column %d", seed, tup, v, col)
					}
					fmt.Fprintf(&answers, "%d col %d: %v\n", id, col, carriers)
				}
				fmt.Fprintf(&answers, "%d more specific: %v\n", id, snap.MoreSpecificInto(tup, nil))
			}
			dumps[k], probes[k] = st.Dump(1<<30), answers.String()
		}
		if dumps[0] != dumps[1] {
			t.Fatalf("seed %d: colliding keys changed the outcome\ncolliding:\n%s\nreal fold:\n%s", seed, dumps[0], dumps[1])
		}
		if probes[0] != probes[1] {
			t.Fatalf("seed %d: colliding keys changed probe answers\ncolliding:\n%s\nreal fold:\n%s", seed, probes[0], probes[1])
		}
	}
}

// TestIndexProbeAllocFree pins that a warm probe allocates nothing: a
// value probe of a key with one member and of a key with a list, a scan,
// each copying its rows into a warm buffer; the null index's members
// copied into a warm buffer, one and a list; and the content lookup of
// Insert's duplicate check.
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
	var rows []Row
	var ids []TupleID
	probeRows := func(rel string, col int, v model.Value) int {
		rows, _ = snap.ProbeRows(rel, col, v, rows[:0], nil)
		return len(rows)
	}
	nullIDs := func(x model.Value) int {
		st.rlock()
		defer st.runlock()
		ids = st.appendNullIDs(ids[:0], x)
		return len(ids)
	}
	dup := tup("S", c("code7"), c("loc7"), c("city7"))
	for _, probe := range []struct {
		name string
		want int // members the probe returns; -1 skips the check
		fn   func() int
	}{
		{"value, one member", 1, func() int { return probeRows("S", 2, c("city7")) }},
		{"value, list", 4, func() int { return probeRows("S", 0, c("code7")) }},
		{"scan", 200, func() int { return probeRows("S", -1, model.Value{}) }},
		{"null, one member", 1, func() int { return nullIDs(n(2)) }},
		{"null, list", 4, func() int { return nullIDs(n(1)) }},
		{"content, duplicate insert", -1, func() int {
			if _, _, inserted, err := st.Insert(1, dup); inserted || err != nil {
				t.Fatalf("duplicate insert: inserted %v, %v", inserted, err)
			}
			return -1
		}},
	} {
		if got := probe.fn(); got != probe.want {
			t.Fatalf("%s: %d members, want %d", probe.name, got, probe.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { probe.fn() }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per probe, want 0", probe.name, allocs)
		}
	}
}

// TestInPlaceListChangesAllocFree pins that an index list with spare
// capacity takes a member in its middle, and gives it back, without
// allocating: a plain ascending list and a posting key's list.
func TestInPlaceListChangesAllocFree(t *testing.T) {
	list := append(make([]TupleID, 0, 8), 1, 3, 5, 7)
	if allocs := testing.AllocsPerRun(100, func() {
		list = addID(list, 4)
		list = removeID(list, 4)
	}); allocs != 0 || !slices.Equal(list, []TupleID{1, 3, 5, 7}) {
		t.Errorf("list %v: %.1f allocations per middle insert and removal, want 0", list, allocs)
	}
	var p postings[uint32]
	for _, id := range []TupleID{1, 3, 5, 7, 9} {
		p.add(1, id)
	}
	p.remove(1, 9) // leaves spare capacity
	if allocs := testing.AllocsPerRun(100, func() {
		p.add(1, 4)
		p.remove(1, 4)
	}); allocs != 0 {
		t.Errorf("posting list: %.1f allocations per middle insert and removal, want 0", allocs)
	}
	if got := p.get(1, new([1]TupleID)); !slices.Equal(got, []TupleID{1, 3, 5, 7}) {
		t.Errorf("posting list reads %v after the changes", got)
	}
}
