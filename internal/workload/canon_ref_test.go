package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"youtopia/internal/model"
)

// canonicalizeNullsReference is the straightforward formulation
// canonicalizeNulls was optimized from — every fact re-rendered through
// fmt and fresh maps each round, and every round run until the colors
// stop changing. It stays here as the oracle: the two must agree tuple
// for tuple, in order, on any fact set. It also returns how many
// refinement rounds it ran.
func canonicalizeNullsReference(facts []model.Tuple) ([]model.Tuple, int) {
	color := make(map[model.Value]int)
	render := func(t model.Tuple) string {
		var b strings.Builder
		b.WriteString(t.Rel)
		for _, v := range t.Vals {
			b.WriteByte('\x02')
			if v.IsNull() {
				fmt.Fprintf(&b, "?%d", color[v])
			} else {
				b.WriteString("c:" + v.ConstValue())
			}
		}
		return b.String()
	}
	distinct := make(map[model.Value]bool)
	for _, t := range facts {
		for _, v := range t.Vals {
			if v.IsNull() {
				distinct[v] = true
			}
		}
	}
	// The canonical colors are those after round |nulls|: the partition
	// stops refining by then (chain-shaped sharing graphs take O(|nulls|)
	// rounds to get there), though the color numbers may still cycle.
	// Only colors that stop changing end the loop early.
	rounds := 0
	for round := 0; round <= len(distinct); round++ {
		rounds++
		keys := make([]string, len(facts))
		for i, t := range facts {
			keys[i] = render(t)
		}
		sigs := make(map[model.Value][]string)
		for i, t := range facts {
			for pos, v := range t.Vals {
				if v.IsNull() {
					sigs[v] = append(sigs[v], fmt.Sprintf("%s@%d", keys[i], pos))
				}
			}
		}
		joined := make(map[model.Value]string, len(sigs))
		all := make([]string, 0, len(sigs))
		for v, ss := range sigs {
			sort.Strings(ss)
			j := strings.Join(ss, "\x01")
			joined[v] = j
			all = append(all, j)
		}
		sort.Strings(all)
		rank := make(map[string]int, len(all))
		for _, k := range all {
			if _, ok := rank[k]; !ok {
				rank[k] = len(rank) + 1
			}
		}
		changed := false
		for v, j := range joined {
			if c := rank[j]; c != color[v] {
				color[v] = c
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	idx := make([]int, len(facts))
	final := make([]string, len(facts))
	for i, t := range facts {
		idx[i] = i
		final[i] = render(t)
	}
	sort.Slice(idx, func(a, b int) bool { return final[idx[a]] < final[idx[b]] })
	ren := model.Subst{}
	var next int64
	out := make([]model.Tuple, len(facts))
	for pos, j := range idx {
		t := facts[j]
		// Within a tuple, tied colors are broken positionally; across
		// tuples, by the sorted order — both canonical.
		for _, v := range t.Vals {
			if v.IsNull() {
				if _, ok := ren[v]; !ok {
					next++
					ren[v] = model.Null(next)
				}
			}
		}
		out[pos] = ren.ApplyTuple(t)
	}
	return out, rounds
}

// TestCanonicalizeNullsMatchesReference drives both implementations
// over random fact sets with heavy null sharing — chains (which need
// many refinement rounds), rings (whose colors permute with a period
// above 1, so the refinement jumps over repeats), symmetric pairs
// (which stay tied), repeated nulls inside a tuple and null-free facts
// — and requires identical output, order included.
func TestCanonicalizeNullsMatchesReference(t *testing.T) {
	jumped := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nNulls := 1 + rng.Intn(14)
		var facts []model.Tuple
		for i, n := 0, rng.Intn(30); i < n; i++ {
			vals := make([]model.Value, 1+rng.Intn(4))
			for j := range vals {
				if rng.Intn(3) == 0 {
					vals[j] = model.Const(fmt.Sprintf("c%d", rng.Intn(3)))
				} else {
					vals[j] = model.Null(int64(100 + rng.Intn(nNulls)))
				}
			}
			facts = append(facts, model.NewTuple(fmt.Sprintf("R%d", rng.Intn(3)), vals...))
		}
		// A chain x0–x1–…–xk hanging off one constant: distinguishing
		// its far end takes one round per link.
		for k, n := 0, rng.Intn(12); k < n; k++ {
			facts = append(facts, model.NewTuple("Chain", model.Null(int64(500+k)), model.Null(int64(501+k))))
			if k == 0 {
				facts = append(facts, model.NewTuple("Head", model.Const("h"), model.Null(500)))
			}
		}
		facts = append(facts, markedRing(700, 2+rng.Intn(14))...)
		got := canonicalizeNulls(facts)
		want, wantRounds := canonicalizeNullsReference(facts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d tuples, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("seed %d: tuple %d = %s, reference %s", seed, i, got[i], want[i])
			}
		}
		if _, rounds := refineNullColors(facts); rounds < wantRounds {
			jumped++
		}
	}
	// The agreement above is only evidence for the jump if it was taken.
	if jumped < 20 {
		t.Fatalf("only %d of 200 fact sets skipped refinement rounds, want ≥ 20", jumped)
	}
}

// markedRing is Ring(x0, x1), …, Ring(x(k-1), x0) over nulls from base
// on, with x0 marked by a constant. Once refinement tells the members
// apart by their distance from the mark, their color numbers permute.
func markedRing(base int64, k int) []model.Tuple {
	facts := []model.Tuple{model.NewTuple("Mark", model.Const("m"), model.Null(base))}
	for i := 0; i < k; i++ {
		facts = append(facts, model.NewTuple("Ring", model.Null(base+int64(i)), model.Null(base+int64((i+1)%k))))
	}
	return facts
}

// decodeCanonFacts turns fuzz input into at most 40 facts in the shapes
// the refinement finds hard: plain facts over a pool of eight nulls
// (so nulls repeat, within a tuple too), anchored chain links, rings
// (marked or not) and symmetric pairs.
func decodeCanonFacts(data []byte) []model.Tuple {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var facts []model.Tuple
	var rings int64
	for len(data) > 0 && len(facts) < 40 {
		op := next()
		switch arg := op / 4; op % 4 {
		case 0:
			vals := make([]model.Value, 1+arg%4)
			for j := range vals {
				if b := next(); b%3 == 0 {
					vals[j] = model.Const(fmt.Sprintf("c%d", b/3%3))
				} else {
					vals[j] = model.Null(int64(100 + b%8))
				}
			}
			facts = append(facts, model.NewTuple(fmt.Sprintf("R%d", arg/4%3), vals...))
		case 1:
			i := int64(arg % 16)
			facts = append(facts, model.NewTuple("Chain", model.Null(200+i), model.Null(201+i)))
			if i == 0 {
				facts = append(facts, model.NewTuple("Head", model.Const("h"), model.Null(200)))
			}
		case 2:
			ring := markedRing(300+20*rings, 1+arg%16)
			rings++
			if arg&16 != 0 {
				ring = ring[1:]
			}
			facts = append(facts, ring...)
		case 3:
			x, y := model.Null(int64(100+arg%8)), model.Null(int64(100+arg/8%8))
			facts = append(facts, model.NewTuple("Sym", x, y), model.NewTuple("Sym", y, x))
		}
	}
	if len(facts) > 40 {
		facts = facts[:40]
	}
	return facts
}

// FuzzCanonicalizeNulls requires canonicalizeNulls, with its jump over
// repeating color vectors, to agree with the reference, which runs
// every round, tuple for tuple.
func FuzzCanonicalizeNulls(f *testing.F) {
	f.Add([]byte{2 + 4*5, 2 + 4*(16+3), 0, 7, 1 + 4*2})
	f.Add([]byte{1, 1 + 4, 1 + 8, 1 + 12, 3 + 4*9, 0 + 4*3, 5, 8, 11, 13})
	f.Add([]byte{2 + 4*15, 2 + 4*11, 3, 3 + 4*17, 0 + 4*2, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		facts := decodeCanonFacts(data)
		got := canonicalizeNulls(facts)
		want, _ := canonicalizeNullsReference(facts)
		if len(got) != len(want) {
			t.Fatalf("%d tuples, reference %d", len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("tuple %d = %s, reference %s\nfacts %v", i, got[i], want[i], facts)
			}
		}
	})
}
