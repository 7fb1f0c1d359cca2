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
// fmt and fresh maps each round. It stays here as the oracle: the two
// must agree tuple for tuple, in order, on any fact set.
func canonicalizeNullsReference(facts []model.Tuple) []model.Tuple {
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
	// Refinement strictly grows the color partition until it reaches a
	// fixpoint, so |nulls| rounds always suffice; chain-shaped sharing
	// graphs genuinely need O(|nulls|) of them.
	for round := 0; round <= len(distinct); round++ {
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
	return out
}

// TestCanonicalizeNullsMatchesReference drives both implementations
// over random fact sets with heavy null sharing — chains (which need
// many refinement rounds), symmetric pairs (which stay tied), repeated
// nulls inside a tuple and null-free facts — and requires identical
// output, order included.
func TestCanonicalizeNullsMatchesReference(t *testing.T) {
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
		got := canonicalizeNulls(facts)
		want := canonicalizeNullsReference(facts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d tuples, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("seed %d: tuple %d = %s, reference %s", seed, i, got[i], want[i])
			}
		}
	}
}
