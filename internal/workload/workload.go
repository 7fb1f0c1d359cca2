// Package workload regenerates the synthetic evaluation setup of the
// paper's §6: a schema of randomly shaped relations, randomly
// generated mappings with one to three atoms per side (smaller sides
// more probable) containing inter-atom joins and constants from a
// small fixed pool, an initial database produced through update
// exchange itself, and the all-insert and mixed insert/delete update
// workloads. Everything is driven by seeded PRNGs so experiments
// replay exactly.
package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/model"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/wal"
)

// Config holds the generator parameters; Default matches §6.
type Config struct {
	// Relations is the number of relations (paper: 100).
	Relations int
	// MinArity and MaxArity bound relation arities (paper: 1..6).
	MinArity, MaxArity int
	// Constants is the size of the fixed constant pool (paper: 50).
	Constants int
	// Mappings is the total number of mappings generated; experiment
	// points use monotone prefixes of this set (paper: 100).
	Mappings int
	// MaxAtomsPerSide bounds mapping sides (paper: 3, skewed small).
	MaxAtomsPerSide int
	// InitialTuples is the size of the seed insert batch whose update
	// exchange produces the initial database (paper: 10000).
	InitialTuples int
	// Updates is the workload length (paper: 500).
	Updates int
	// InsertPct is the percentage of inserts in the workload (100 for
	// Figure 3, 80 for Figure 4).
	InsertPct int
	// FreshNulls, when true, makes "fresh" insert values labeled nulls
	// instead of fresh constants. The paper's wording admits both
	// readings; fresh constants are the default.
	FreshNulls bool
	// SetupWorkers selects how the initial database is generated: 0
	// (the default) runs the seed batch through the parallel scheduler
	// on GOMAXPROCS workers, a positive value on that many workers, and
	// a negative value through the serial reference scheduler
	// (PolicySerial) — the pre-parallel behaviour, kept for equivalence
	// tests. All modes produce the same initial database: the parallel
	// runtime is serializable and the simulated user's decisions are
	// order-independent, and the extracted facts are canonicalized (see
	// genInitialDB).
	SetupWorkers int
	// Seed drives all generation.
	Seed int64
}

// Default returns the paper-scale configuration of §6.
func Default() Config {
	return Config{
		Relations:       100,
		MinArity:        1,
		MaxArity:        6,
		Constants:       50,
		Mappings:        100,
		MaxAtomsPerSide: 3,
		InitialTuples:   10000,
		Updates:         500,
		InsertPct:       100,
		Seed:            1,
	}
}

// Quick returns a reduced configuration with the same structure, for
// tests and benchmark defaults.
func Quick() Config {
	return Config{
		Relations:       20,
		MinArity:        1,
		MaxArity:        4,
		Constants:       12,
		Mappings:        24,
		MaxAtomsPerSide: 3,
		InitialTuples:   300,
		Updates:         40,
		InsertPct:       100,
		Seed:            1,
	}
}

// Universe is a fully generated experimental setup: schema, the full
// mapping set (points use prefixes), the constant pool, and the
// initial database as a fact list (load into fresh stores per run).
type Universe struct {
	Config   Config
	Schema   *model.Schema
	Mappings *tgd.Set
	Pool     []model.Value
	Initial  []model.Tuple
}

// Build generates the universe for a configuration: schema, mappings,
// constants, and the initial database — the latter produced by
// inserting seed tuples one at a time and chasing each to completion
// with a simulated user, exactly as §6 describes ("it is not easy to
// obtain an interesting database that satisfies an arbitrary,
// potentially cyclic, set of tgds using another method").
func Build(cfg Config) (*Universe, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &Universe{Config: cfg}
	u.Schema = genSchema(rng, cfg)
	u.Pool = genPool(rng, cfg)
	set, err := genMappings(rng, cfg, u.Schema, u.Pool)
	if err != nil {
		return nil, err
	}
	u.Mappings = set
	initial, err := genInitialDB(rng, cfg, u)
	if err != nil {
		return nil, err
	}
	u.Initial = initial
	return u, nil
}

func validate(cfg Config) error {
	switch {
	case cfg.Relations < 1:
		return fmt.Errorf("workload: Relations must be positive")
	case cfg.MinArity < 1 || cfg.MaxArity < cfg.MinArity:
		return fmt.Errorf("workload: bad arity bounds [%d, %d]", cfg.MinArity, cfg.MaxArity)
	case cfg.Constants < 1:
		return fmt.Errorf("workload: Constants must be positive")
	case cfg.Mappings < 0 || cfg.MaxAtomsPerSide < 1:
		return fmt.Errorf("workload: bad mapping parameters")
	case cfg.InsertPct < 0 || cfg.InsertPct > 100:
		return fmt.Errorf("workload: InsertPct must be within [0, 100]")
	case cfg.InitialTuples < 0 || cfg.Updates < 0:
		return fmt.Errorf("workload: InitialTuples and Updates must not be negative")
	}
	return nil
}

// genSchema creates Relations relations named R0.. with arities drawn
// uniformly from [MinArity, MaxArity].
func genSchema(rng *rand.Rand, cfg Config) *model.Schema {
	s := model.NewSchema()
	for i := 0; i < cfg.Relations; i++ {
		arity := cfg.MinArity + rng.Intn(cfg.MaxArity-cfg.MinArity+1)
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		s.MustAddRelation(fmt.Sprintf("R%d", i), attrs...)
	}
	return s
}

// genPool creates the fixed pool of random constant strings.
func genPool(rng *rand.Rand, cfg Config) []model.Value {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	pool := make([]model.Value, cfg.Constants)
	seen := make(map[string]bool)
	for i := range pool {
		for {
			b := make([]byte, 5)
			for j := range b {
				b[j] = letters[rng.Intn(len(letters))]
			}
			s := string(b)
			if !seen[s] {
				seen[s] = true
				pool[i] = model.Const(s)
				break
			}
		}
	}
	return pool
}

// sideSize draws an atom count in [1, max] with smaller sizes more
// probable (§6: "humans are highly unlikely to create mappings with
// more than one or two atoms on either side").
func sideSize(rng *rand.Rand, max int) int {
	r := rng.Float64()
	switch {
	case r < 0.55 || max < 2:
		return 1
	case r < 0.85 || max < 3:
		return 2
	default:
		return 3
	}
}

// genMappings creates the full mapping set. Each mapping picks random
// relation subsets for its sides and fills argument positions with
// variables and occasional pool constants, taking care to create
// inter-atom joins on the LHS and to share at least one universally
// quantified variable with the RHS.
func genMappings(rng *rand.Rand, cfg Config, schema *model.Schema, pool []model.Value) (*tgd.Set, error) {
	rels := schema.Names()
	set := tgd.MustNewSet()
	for i := 0; i < cfg.Mappings; i++ {
		lhs := genSide(rng, cfg, rels, schema, pool, nil)
		// Collect LHS variables for frontier sharing.
		var lhsVars []string
		seen := map[string]bool{}
		for _, a := range lhs {
			for _, v := range a.Vars() {
				if !seen[v] {
					seen[v] = true
					lhsVars = append(lhsVars, v)
				}
			}
		}
		rhs := genSide(rng, cfg, rels, schema, pool, lhsVars)
		t := tgd.New(fmt.Sprintf("m%d", i), lhs, rhs)
		if err := t.Validate(schema); err != nil {
			return nil, err
		}
		if err := set.Add(t); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// genSide builds one side of a mapping.
//
// An LHS (lhsVars == nil) gives every atom position a distinct fresh
// variable (occasionally a pool constant), then joins consecutive
// atoms by overwriting one position of each later atom with a variable
// of an earlier atom. Joins are therefore inter-atom equalities on
// single positions — the join shape the paper's generator aims for —
// while within-atom repeats, which would make a mapping fire only on
// tuples with duplicated values, are avoided.
//
// An RHS (lhsVars != nil) mixes universally quantified variables from
// the LHS (these make the mapping propagate data), existential
// variables (occasionally shared between RHS atoms, producing frontier
// groups with shared fresh nulls), and pool constants; at least one
// LHS variable is forced in.
func genSide(rng *rand.Rand, cfg Config, rels []string, schema *model.Schema, pool []model.Value, lhsVars []string) []tgd.Atom {
	n := sideSize(rng, cfg.MaxAtomsPerSide)
	perm := rng.Perm(len(rels))
	atoms := make([]tgd.Atom, 0, n)
	isRHS := lhsVars != nil

	varCount := 0
	fresh := func(prefix string) string {
		varCount++
		return fmt.Sprintf("%s%d", prefix, varCount)
	}

	if !isRHS {
		for k := 0; k < n && k < len(perm); k++ {
			rel := rels[perm[k]]
			arity := schema.Arity(rel)
			terms := make([]tgd.Term, arity)
			for p := 0; p < arity; p++ {
				if rng.Float64() < 0.06 {
					terms[p] = tgd.C(pool[rng.Intn(len(pool))].ConstValue())
				} else {
					terms[p] = tgd.V(fresh("x"))
				}
			}
			atoms = append(atoms, tgd.NewAtom(rel, terms...))
		}
		// Join each later atom to the variables introduced before it.
		var prior []string
		for _, v := range atoms[0].Vars() {
			prior = append(prior, v)
		}
		for k := 1; k < len(atoms); k++ {
			a := &atoms[k]
			joins := 1
			if rng.Float64() < 0.2 && len(a.Terms) > 1 {
				joins = 2
			}
			for j := 0; j < joins && len(prior) > 0; j++ {
				pos := rng.Intn(len(a.Terms))
				a.Terms[pos] = tgd.V(prior[rng.Intn(len(prior))])
			}
			for _, v := range a.Vars() {
				prior = append(prior, v)
			}
		}
		return atoms
	}

	for k := 0; k < n && k < len(perm); k++ {
		rel := rels[perm[k]]
		arity := schema.Arity(rel)
		terms := make([]tgd.Term, arity)
		var existing []string // existentials introduced so far
		for p := 0; p < arity; p++ {
			r := rng.Float64()
			switch {
			case r < 0.06:
				terms[p] = tgd.C(pool[rng.Intn(len(pool))].ConstValue())
			case r < 0.56 && len(lhsVars) > 0:
				terms[p] = tgd.V(lhsVars[rng.Intn(len(lhsVars))])
			case r < 0.70 && len(existing) > 0:
				terms[p] = tgd.V(existing[rng.Intn(len(existing))])
			default:
				v := fresh("z")
				existing = append(existing, v)
				terms[p] = tgd.V(v)
			}
		}
		atoms = append(atoms, tgd.NewAtom(rel, terms...))
	}
	// Force at least one universally quantified variable into the RHS.
	if len(lhsVars) > 0 && !usesAny(atoms, lhsVars) {
		a := &atoms[rng.Intn(len(atoms))]
		pos := rng.Intn(len(a.Terms))
		a.Terms[pos] = tgd.V(lhsVars[rng.Intn(len(lhsVars))])
	}
	return atoms
}

func usesAny(atoms []tgd.Atom, vars []string) bool {
	want := map[string]bool{}
	for _, v := range vars {
		want[v] = true
	}
	for _, a := range atoms {
		for _, v := range a.Vars() {
			if want[v] {
				return true
			}
		}
	}
	return false
}

// genInitialDB produces the initial database: InitialTuples seed
// tuples (relation uniform, values from the pool) inserted one at a
// time, each chased to completion with a simulated user, under the
// full mapping set. By default the seed batch runs through the
// parallel scheduler — the execution is serializable and the simulated
// user's decisions are keyed on canonical contexts, so the committed
// instance matches the serial reference's up to renaming of the fresh
// labeled nulls the chase mints; the extracted facts are then
// canonicalized (nulls renumbered in canonical order) so the universe
// is identical whichever execution mode built it. This cuts setup
// time on multicore machines and doubles as a standing
// serial-vs-parallel equivalence check. The resulting facts are
// returned for loading into fresh stores as the committed writer-0
// state.
func genInitialDB(rng *rand.Rand, cfg Config, u *Universe) ([]model.Tuple, error) {
	st := storage.NewStore(u.Schema)
	ops := make([]chase.Op, 0, cfg.InitialTuples)
	rels := u.Schema.Names()
	for i := 0; i < cfg.InitialTuples; i++ {
		rel := rels[rng.Intn(len(rels))]
		arity := u.Schema.Arity(rel)
		vals := make([]model.Value, arity)
		for j := range vals {
			vals[j] = u.Pool[rng.Intn(len(u.Pool))]
		}
		ops = append(ops, chase.Insert(model.NewTuple(rel, vals...)))
	}
	ccCfg := cc.Config{
		User: simuser.New(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15),
	}
	var err error
	if cfg.SetupWorkers < 0 {
		ccCfg.Policy = cc.PolicySerial
		ccCfg.Tracker = cc.Naive{}
		_, err = cc.NewScheduler(st, u.Mappings, ccCfg).Run(ops)
	} else {
		ccCfg.Workers = cfg.SetupWorkers // 0 = GOMAXPROCS
		ccCfg.Tracker = cc.Coarse{}
		_, err = cc.NewParallelScheduler(st, u.Mappings, ccCfg).Run(ops)
	}
	if err != nil {
		return nil, fmt.Errorf("workload: initial database generation: %w", err)
	}
	facts := st.Snap(1 << 30).VisibleFacts()
	var out []model.Tuple
	for _, rel := range u.Schema.SortedNames() {
		out = append(out, facts[rel]...)
	}
	return canonicalizeNulls(out), nil
}

// canonicalizeNulls renumbers the labeled nulls of a fact set to 1..k
// in a canonical order, preserving cross-tuple null sharing.
// Executions that differ only in null allocation order (serial vs
// parallel initial-database builds) thereby extract byte-identical
// universes.
//
// Per-tuple canonical renderings alone cannot order nulls that appear
// in identically-shaped tuples but differ in how they are shared
// across tuples, so nulls are first distinguished by bounded color
// refinement (refineNullColors). Nulls still tied after refinement
// occupy genuinely symmetric positions, where any assignment yields
// the same set up to automorphism.
func canonicalizeNulls(facts []model.Tuple) []model.Tuple {
	color, _ := refineNullColors(facts)
	render := func(t model.Tuple) string {
		b := []byte(t.Rel)
		for _, v := range t.Vals {
			b = append(b, '\x02')
			if v.IsNull() {
				b = strconv.AppendInt(append(b, '?'), int64(color[v]), 10)
			} else {
				b = append(append(b, "c:"...), v.ConstValue()...)
			}
		}
		return string(b)
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

// refineNullColors is the color refinement canonicalizeNulls orders
// nulls by, exactly the 1-dimensional Weisfeiler–Lehman refinement on
// the fact/null incidence graph: each round recomputes every null's
// color as the rank of the canonical renderings of the tuples
// containing it, current colors substituted. It returns each null's
// color after round |nulls| (rounds are numbered from 0) and how many
// rounds it actually ran to learn them.
//
// A round is a pure function of the color vector and reads no null
// identity, so the colors (and the round count) depend only on the
// fact set up to null renaming. Within |nulls| rounds the partition
// into color classes stops refining, but the color numbers need not
// stop changing: on the benchmark's universe they cycle with period
// 170 from round 1 on. So the loop records a digest of each round's
// vector, and when round r reproduces the vector of round j, the
// vector after any later round l is the one after round
// r + (l-r) mod (r-j); it runs just that far. Colors that stop
// changing are the period-1 case.
func refineNullColors(facts []model.Tuple) (map[model.Value]int, int) {
	// Nulls get dense indexes in first-occurrence order. Everything a
	// round needs is laid out once here: which facts carry nulls, each
	// such fact's rendering split around its nulls, and where each null
	// occurs. A round then only appends bytes into reused buffers.
	index := make(map[model.Value]int)
	type occurrence struct{ slot, pos int }
	type template struct {
		pieces [][]byte // len(nulls)+1 literal runs, a color between each
		nulls  []int
	}
	var occs [][]occurrence // per null
	var tmpls []template    // per null-bearing fact, its slot
	for _, t := range facts {
		var tm template
		piece := []byte(t.Rel)
		for pos, v := range t.Vals {
			piece = append(piece, '\x02')
			if !v.IsNull() {
				piece = append(append(piece, "c:"...), v.ConstValue()...)
				continue
			}
			k, ok := index[v]
			if !ok {
				k = len(occs)
				index[v] = k
				occs = append(occs, nil)
			}
			occs[k] = append(occs[k], occurrence{len(tmpls), pos})
			tm.pieces = append(tm.pieces, append(piece, '?'))
			tm.nulls = append(tm.nulls, k)
			piece = nil
		}
		if tm.nulls != nil {
			tm.pieces = append(tm.pieces, piece)
			tmpls = append(tmpls, tm)
		}
	}
	color := make([]int, len(occs))

	// keyBuf[keyOff[slot]:keyOff[slot+1]] is a fact's key this round,
	// joinBuf[joinOff[k]:joinOff[k+1]] a null's joined signature.
	var keyBuf, sigBuf, joinBuf, digestBuf []byte
	keyOff := make([]int, len(tmpls)+1)
	joinOff := make([]int, len(occs)+1)
	key := func(slot int) []byte { return keyBuf[keyOff[slot]:keyOff[slot+1]] }
	joined := func(k int) []byte { return joinBuf[joinOff[k]:joinOff[k+1]] }
	var sigs [][]byte
	var sigEnd []int
	order := make([]int, len(occs))
	for k := range order {
		order[k] = k
	}
	// seen maps each vector's digest to the round that produced it, until
	// a repeat fixes the last round (nil from then on).
	seen := make(map[[sha256.Size]byte]int)
	last := len(occs)
	round := 0
	for ; round <= last; round++ {
		// Each null-bearing fact's key: its rendering with the current
		// colors standing in for its nulls.
		keyBuf = keyBuf[:0]
		for slot, tm := range tmpls {
			for i, k := range tm.nulls {
				keyBuf = append(keyBuf, tm.pieces[i]...)
				keyBuf = strconv.AppendInt(keyBuf, int64(color[k]), 10)
			}
			keyBuf = append(keyBuf, tm.pieces[len(tm.nulls)]...)
			keyOff[slot+1] = len(keyBuf)
		}
		// Each null's signature: the sorted "key@position" of its
		// occurrences, joined.
		joinBuf = joinBuf[:0]
		for k, os := range occs {
			sigBuf, sigEnd, sigs = sigBuf[:0], sigEnd[:0], sigs[:0]
			for _, o := range os {
				sigBuf = append(append(sigBuf, key(o.slot)...), '@')
				sigBuf = strconv.AppendInt(sigBuf, int64(o.pos), 10)
				sigEnd = append(sigEnd, len(sigBuf))
			}
			// Sliced only now: sigBuf may have moved while it grew.
			from := 0
			for _, to := range sigEnd {
				sigs = append(sigs, sigBuf[from:to])
				from = to
			}
			slices.SortFunc(sigs, bytes.Compare)
			for i, sig := range sigs {
				if i > 0 {
					joinBuf = append(joinBuf, '\x01')
				}
				joinBuf = append(joinBuf, sig...)
			}
			joinOff[k+1] = len(joinBuf)
		}
		// A null's new color is the rank of its signature among the
		// distinct signatures.
		slices.SortFunc(order, func(a, b int) int { return bytes.Compare(joined(a), joined(b)) })
		rank := 0
		for i, k := range order {
			if i == 0 || !bytes.Equal(joined(k), joined(order[i-1])) {
				rank++
			}
			color[k] = rank
		}
		if seen == nil {
			continue
		}
		digestBuf = digestBuf[:0]
		for _, c := range color {
			digestBuf = binary.AppendUvarint(digestBuf, uint64(c))
		}
		d := sha256.Sum256(digestBuf)
		if j, ok := seen[d]; ok {
			last = round + (last-round)%(round-j)
			seen = nil
			continue
		}
		seen[d] = round
	}
	for v, k := range index {
		index[v] = color[k]
	}
	return index, round
}

// NewStore loads the universe's initial database into a fresh store
// as committed (writer 0) state.
func (u *Universe) NewStore() (*storage.Store, error) {
	st := storage.NewStore(u.Schema)
	for _, t := range u.Initial {
		if _, err := st.Load(t); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// NewBackend is NewStore returned as a storage.Backend (nil on error).
func (u *Universe) NewBackend() (storage.Backend, error) {
	st, err := u.NewStore()
	if err != nil {
		return nil, err
	}
	return st, nil
}

// OpenDurableStore is NewStore over a write-ahead-logged backing: the
// store is recovered from dir, and on a fresh directory the initial
// database is loaded and made durable with a bootstrap checkpoint
// (writer-0 loads bypass the commit log). Reopening a directory where
// a workload already ran therefore resumes from whatever that run
// committed — the durable seed build the crash-recovery experiments
// and the -data-dir benches are based on. The caller owns closing the
// returned manager.
func (u *Universe) OpenDurableStore(dir string, opts wal.Options) (*storage.Store, *wal.Manager, error) {
	mgr, st, err := wal.Open(dir, u.Schema, opts)
	if err != nil {
		return nil, nil, err
	}
	if mgr.Fresh() {
		for _, t := range u.Initial {
			if _, err := st.Load(t); err != nil {
				mgr.Close()
				return nil, nil, fmt.Errorf("workload: durable seed load: %w", err)
			}
		}
		if err := mgr.Checkpoint(); err != nil {
			mgr.Close()
			return nil, nil, fmt.Errorf("workload: bootstrap checkpoint: %w", err)
		}
	}
	return st, mgr, nil
}

// GenOpsSeeded is GenOps with a fresh PRNG from the given seed.
func (u *Universe) GenOpsSeeded(seed int64) []chase.Op {
	return u.GenOps(rand.New(rand.NewSource(seed)))
}

// GenOps generates one workload of cfg.Updates operations against the
// universe: InsertPct percent inserts (values drawn with equal
// probability from the pool or fresh) and the rest deletes (relation
// uniform among nonempty ones, then a tuple uniform within it, as in
// §6), with the combined order randomized. The rng should be derived
// from the run index so repeated runs differ.
func (u *Universe) GenOps(rng *rand.Rand) []chase.Op {
	cfg := u.Config
	nInserts := cfg.Updates * cfg.InsertPct / 100
	nDeletes := cfg.Updates - nInserts
	rels := u.Schema.Names()

	byRel := make(map[string][]model.Tuple)
	var nonEmpty []string
	for _, t := range u.Initial {
		if len(byRel[t.Rel]) == 0 {
			nonEmpty = append(nonEmpty, t.Rel)
		}
		byRel[t.Rel] = append(byRel[t.Rel], t)
	}

	freshCount := 0
	freshVal := func() model.Value {
		freshCount++
		if cfg.FreshNulls {
			// High IDs avoid collision with nulls in the initial data.
			return model.Null(int64(1_000_000 + freshCount))
		}
		return model.Const(fmt.Sprintf("fresh_%d_%d", rng.Int63n(1<<30), freshCount))
	}

	ops := make([]chase.Op, 0, cfg.Updates)
	for i := 0; i < nInserts; i++ {
		rel := rels[rng.Intn(len(rels))]
		arity := u.Schema.Arity(rel)
		vals := make([]model.Value, arity)
		for j := range vals {
			if rng.Intn(2) == 0 {
				vals[j] = u.Pool[rng.Intn(len(u.Pool))]
			} else {
				vals[j] = freshVal()
			}
		}
		ops = append(ops, chase.Insert(model.NewTuple(rel, vals...)))
	}
	for i := 0; i < nDeletes && len(nonEmpty) > 0; i++ {
		rel := nonEmpty[rng.Intn(len(nonEmpty))]
		ts := byRel[rel]
		ops = append(ops, chase.Delete(ts[rng.Intn(len(ts))].Clone()))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
