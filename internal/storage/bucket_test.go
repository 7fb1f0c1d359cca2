package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"youtopia/internal/model"
)

// refBucket is the index entry the posting indexes replaced: a Go map
// per indexed value counting the versions of each member, sorted on
// demand. It stays here as the reference the paged runs are compared
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
	slices.Sort(s)
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

// drain returns the members a cursor walks, in order.
func drain[W uint32 | uint64](c *postCursor[W]) []TupleID {
	var ids []TupleID
	for id, ok := c.next(); ok; id, ok = c.next() {
		ids = append(ids, id)
	}
	return ids
}

// postPageCounts returns the number of entries on each page of p.
func postPageCounts[W uint32 | uint64](p *postings[W]) []int {
	var ns []int
	for _, pg := range p.pages {
		ns = append(ns, pg.len())
	}
	return ns
}

// TestPostingListMatchesMapMultiset drives a posting index, key by key,
// with the same random streams of version adds and removes as the old
// map multisets — repeated members, descending IDs, IDs of several
// stripes, removes of non-members — the way the store drives an index:
// the member is added with every version and removed when its last
// version goes. Each seed first grows the keys' runs, interleaved in one
// sorted run, and then shrinks them, so runs span three pages or more,
// straddle page boundaries, split, merge and empty pages. Members,
// counts, each stripe's sub-run and the distinct-key count must agree
// with the reference after every step, the index must hold exactly the
// reference's (key, slot) entries in order and pass the layout audit,
// and the free list stays within its bound. Both widths run: the
// full-width index of the null index over IDs of three stripes, and a
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
	var longRuns, straddles, emptied int
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		refs := make([]*refBucket, nkeys)
		for k := range refs {
			refs[k] = &refBucket{counts: make(map[TupleID]int)}
		}
		p := empty
		var free []*postPage[W]
		p.free = &free
		pick := func() TupleID {
			stripe, local := TupleID(rng.Intn(stripes)), TupleID(rng.Intn(150)+1)
			return p.base + stripe<<localIDBits + local
		}
		next := p.base + 151 // ascending tail appends, first stripe first
		for step := 0; step < 900; step++ {
			k := rng.Intn(nkeys)
			ref := refs[k]
			var id TupleID
			addShare := 8 // of 10: the runs grow, then shrink
			if step >= 450 {
				addShare = 3
			}
			switch r := rng.Intn(10); {
			case r < addShare:
				if r < 2 {
					id, next = next, next+1
				} else {
					id = pick()
				}
				p.add(W(k), id)
				ref.add(id)
			default:
				id = pick()
				if rng.Intn(4) == 0 && len(ref.counts) > 0 {
					id = ref.ids()[len(ref.counts)-1] // the tail
				}
				if !ref.remove(id) {
					break
				}
				pages := len(p.pages)
				p.remove(W(k), id)
				if len(p.pages) < pages {
					emptied++
				}
			}
			var want [][2]W
			keys := 0
			for k, ref := range refs {
				ids := ref.ids()
				for _, id := range ids {
					want = append(want, [2]W{W(k), W(id - p.base)})
				}
				if len(ids) > 0 {
					keys++
				}
				got := p.appendMembers(nil, W(k))
				if !slices.Equal(got, ids) || p.count(W(k)) != len(ids) {
					t.Fatalf("seed %d step %d after %d: key %d lists %v (count %d), reference %v", seed, step, id, k, got, p.count(W(k)), ids)
				}
				for st := range TupleID(stripes) {
					if stripes == 1 {
						break // a stripe index's slots are counters: its run is the stripe's
					}
					lo := p.base + st<<localIDBits
					var c postCursor[W]
					c.seek(&p, W(k), W(lo), W(lo+1<<localIDBits))
					sub := drain(&c)
					if wantSub := slices.DeleteFunc(slices.Clone(ids), func(id TupleID) bool { return id < lo || id >= lo+1<<localIDBits }); !slices.Equal(sub, wantSub) {
						t.Fatalf("seed %d step %d: key %d's run in stripe %d is %v, reference %v", seed, step, k, st, sub, wantSub)
					}
				}
				if j0, _, _ := p.find(W(k), 0); len(ids) > 0 {
					j1, _, _ := p.find(W(k), ^W(0))
					if j1-j0 >= 2 {
						longRuns++
					}
				}
			}
			if err := p.checkLayout(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got := p.entries(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: entries %v, reference %v", seed, step, got, want)
			}
			if p.keys != keys {
				t.Fatalf("seed %d step %d: %d distinct keys counted, reference %d", seed, step, p.keys, keys)
			}
			if len(free) > maxFreeLogs {
				t.Fatalf("seed %d step %d: %d free pages, bound %d", seed, step, len(free), maxFreeLogs)
			}
			for j := 1; j < len(p.pages); j++ {
				a, b := p.pages[j-1], p.pages[j]
				last, bLast := a.keys[a.len()-1], b.keys[b.len()-1]
				if last == b.keys[0] && (a.keys[0] != last || bLast != last) {
					straddles++ // a run crosses the boundary beside another key
				}
			}
		}
	}
	if longRuns == 0 || straddles == 0 || emptied == 0 {
		t.Fatalf("the streams never made a run of three pages (%d), a run crossing a page boundary beside another key (%d) or an emptied page (%d)", longRuns, straddles, emptied)
	}
}

// TestPostingTransitions walks a stripe index through every change of
// its pages: an append past a full last page opens a page, a removal
// that empties a page drops it onto the free list, an insert into a
// full page without neighbours splits it with a page taken back from
// the free list, an insert into a full page moves an entry over to a
// neighbour with room, right or left, instead, removals merge two
// neighbours that fit in one page, and the free list keeps at most
// maxFreeLogs pages. The distinct-key count follows keys that come and
// go, and a key's run reads the same across the changes.
func TestPostingTransitions(t *testing.T) {
	const base = 5 << localIDBits
	var free []*postPage[uint32]
	p := postings[uint32]{base: base, free: &free}
	check := func(what string, counts []int, nfree, keys int) {
		t.Helper()
		if got := postPageCounts(&p); !slices.Equal(got, counts) || len(free) != nfree || p.keys != keys {
			t.Fatalf("%s: pages %v, %d free, %d keys; want %v, %d, %d", what, got, len(free), p.keys, counts, nfree, keys)
		}
		if err := p.checkLayout(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	var run []TupleID // key 1's members
	checkRun := func(what string) {
		t.Helper()
		if got := p.appendMembers(nil, 1); !slices.Equal(got, run) || p.count(1) != len(run) {
			t.Fatalf("%s: key 1 reads %v (count %d), want %v", what, got, p.count(1), run)
		}
	}
	for i := range TupleID(postPageSize) {
		p.add(1, base+2+2*i)
		run = append(run, base+2+2*i)
	}
	check("a full page", []int{32}, 0, 1)
	p.add(2, base+1)
	check("a key past a full last page", []int{32, 1}, 0, 2)
	p.remove(2, base+1)
	check("the emptied page", []int{32}, 1, 1)
	p.add(1, base+3)
	run = slices.Insert(run, 1, base+3)
	check("a split", []int{17, 16}, 0, 1)
	checkRun("the split")
	for i := range TupleID(16) {
		p.add(0, base+1+i) // key 0 sorts first: page 0 fills, then spills
	}
	check("a spill to the right", []int{32, 17}, 0, 2)
	for i := range TupleID(15) {
		p.add(2, base+1+i) // key 2 sorts last
	}
	check("two full pages", []int{32, 32}, 0, 3)
	p.remove(0, base+1)
	check("room on the left", []int{31, 32}, 0, 3)
	p.add(2, base+16)
	check("a spill to the left", []int{32, 32}, 0, 3)
	checkRun("the spills")
	p.add(2, base+17)
	check("a tail page", []int{32, 32, 1}, 0, 3)
	for i := range TupleID(17) {
		p.remove(2, base+17-i)
	}
	check("a key gone, its last page emptied", []int{32, 16}, 1, 2)
	for i := range TupleID(15) {
		p.remove(0, base+2+i)
	}
	check("a key gone, its page held by the next", []int{17, 16}, 1, 1)
	p.remove(1, run[0])
	run = run[1:]
	check("two neighbours that fit in one page", []int{32}, 2, 1)
	checkRun("the merge")
	// Growing by appends to 20 pages and emptying them again leaves
	// maxFreeLogs pages on the free list and an empty directory.
	for i := range TupleID(20*postPageSize - 32) {
		p.add(3, base+1+i)
	}
	for _, k := range []uint32{1, 3} {
		for _, id := range p.appendMembers(nil, k) {
			p.remove(k, id)
		}
	}
	check("an emptied index", nil, maxFreeLogs, 0)
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
// Under the race detector a reader still reading an index page the
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

// TestInPlaceListChangesAllocFree pins that a page of a posting index
// with spare room takes an entry in its middle, and gives it back,
// without allocating, and that the distinct-key count follows.
func TestInPlaceListChangesAllocFree(t *testing.T) {
	var p postings[uint32]
	for _, id := range []TupleID{1, 3, 5, 7} {
		p.add(1, id)
		p.add(3, id)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.add(1, 4)
		p.add(2, 4)
		p.remove(1, 4)
		p.remove(2, 4)
	}); allocs != 0 {
		t.Errorf("posting page: %.1f allocations per middle insert and removal, want 0", allocs)
	}
	if got := p.appendMembers(nil, 1); !slices.Equal(got, []TupleID{1, 3, 5, 7}) || p.keys != 2 || len(p.pages) != 1 {
		t.Errorf("key 1 reads %v, %d keys on %d pages after the changes", got, p.keys, len(p.pages))
	}
}
