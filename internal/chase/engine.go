package chase

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
)

// ReadObserver is notified of every read query an update performs, at
// the moment it is performed. Concurrency control installs an observer
// to compute read dependencies (§5.1) as reads happen. An engine keeps
// read logs only while an observer is installed: the logs exist for
// Algorithm 4's conflict checks, and without concurrency control
// nothing ever checks them.
type ReadObserver func(u *Update, q query.ReadQuery)

// Engine executes chase steps against a store and a mapping set. It
// is driven from outside (package cc's scheduler, or the single-user
// Runner below) and performs no scheduling of its own.
//
// One goroutine steps an engine at a time: a scheduler runs every
// update on the goroutine that called Run, and a repository steps its
// engine under its lock. That is what lets the engine own the step
// scratch below, one copy for all its updates, rather than each
// attempt or each update owning one, and the read pool its read sites
// take stored reads from and its updates' releases give them back to.
type Engine struct {
	store storage.Backend
	tgds  *tgd.Set
	// space names the engine's minted nulls; see mint.
	space     int64
	spaceOnce sync.Once
	// observer may be nil.
	observer ReadObserver
	// MaxStepsPerAttempt guards against runaway chases (cyclic mappings
	// with users who always expand). NewEngine sets it to 100000; zero
	// means no limit.
	MaxStepsPerAttempt int

	// idle holds the query contexts no attempt owns (queryContext),
	// guarded by idleMu. It is a plain list rather than a sync.Pool,
	// which drains at every collection and would hand out cold pools.
	idleMu sync.Mutex
	idle   []*queryContext

	// reads recycles the stored reads of the updates the engine steps
	// (readPool). Like the step scratch, it is touched only by the
	// goroutine stepping the engine.
	reads readPool

	// qe is the query engine every step's read half runs on, built at
	// the engine's first step and pointed at the stepping attempt's
	// snapshot (queryEngine). Its pools (slot runs, row stack, key and
	// signature buffers) stay warm from one attempt to the next.
	qe *query.Engine

	// Step scratch: buffers no attempt carries from one call to the
	// next, whichever update the call serves. writes holds the records
	// a step hands out as StepResult.Writes, valid until the engine's
	// next step; generated, minted, frontier and candidates are
	// planForward's and planBackward's planning scratch.
	writes     []storage.WriteRec
	generated  []model.Tuple
	minted     []model.Value
	frontier   []model.Tuple
	candidates []storage.TupleID

	// Frontier-question scratch: the decisions scratchOptions
	// enumerates, the unify targets of the tuple it asks about, and the
	// canonical renderings of Options and DecisionContext.
	opts    []Decision
	targets []storage.TupleID
	canon   []byte
	spans   []targetSpan
	tuples  []model.Tuple
	scratch model.CanonScratch
}

// NewEngine creates a chase engine that bounds an attempt at 100000
// steps (MaxStepsPerAttempt).
func NewEngine(store storage.Backend, set *tgd.Set) *Engine {
	return &Engine{store: store, tgds: set, MaxStepsPerAttempt: 100000}
}

// SetReadObserver installs the read observer.
func (e *Engine) SetReadObserver(obs ReadObserver) { e.observer = obs }

// Store returns the underlying store.
func (e *Engine) Store() storage.Backend { return e.store }

// Mappings returns the mapping set.
func (e *Engine) Mappings() *tgd.Set { return e.tgds }

// logsReads reports whether the engine keeps read logs, i.e. whether
// an observer is installed. Read sites test it before building a read.
func (e *Engine) logsReads() bool { return e.observer != nil }

// record logs a read query that the engine's read pool built on the
// update's read log, which then gives it back to that pool at release,
// and notifies the observer. Callers have checked logsReads. Every read
// performed is logged, a repeat of an earlier one too: a repeat guards
// the same answer, and no read site repeats often (positiveOptions logs
// a group's patterns only when they changed).
func (e *Engine) record(u *Update, q query.ReadQuery) {
	u.pool = &e.reads
	u.reads = append(u.reads, q)
	obsReadsRecorded.Inc()
	e.observer(u, q)
}

// queryContext is the state of one update attempt that outlives a
// single call: one live snapshot at the update's reader priority and
// the violation queue's storage. The snapshot is a stateless view over
// live store state, so it stays valid across the attempt's own writes.
// The read log is not here: it stays on the update, which concurrency
// control checks until commit. It holds no query engine: each step's
// read half points the engine's one (Engine.queryEngine) at the
// context's snapshot. Scratch that no call leaves anything in belongs
// to the engine, not here.
//
// Contexts are recycled through the engine's idle list. An attempt
// takes one at its first query (Engine.queryContext), which re-points
// the snapshot at the attempt's update number in place
// (Backend.SnapInto), and gives it back when the attempt ends: at
// termination, Cancel and Reset (Update.releaseContext). Between the
// two, the context belongs to that attempt alone and is used by one
// goroutine at a time. Every user is a step or frontier operation on
// the owning update; conflict checks on its behalf run on the
// scheduler's checker (query.Checker) and never borrow it. An abort
// wave gives a victim's context back through Reset between steps,
// outside every call that uses the context.
type queryContext struct {
	snap storage.Snapshot
	home *Engine

	// The violation queue's storage, kept warm for the next attempt:
	// spare entries for enqueue to reuse, the arena the queued
	// entries' witness signatures are rendered into (compacted by the
	// recheck, emptied with the queue), and the seeded queries' result
	// array.
	spare []*queuedViolation
	sigs  []byte
	viols []query.Violation
}

// entry returns a zeroed queue entry, reusing a spare one.
func (c *queryContext) entry() *queuedViolation {
	if n := len(c.spare); n > 0 {
		qv := c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
		return qv
	}
	return new(queuedViolation)
}

// recycle takes back an entry that left the queue.
func (c *queryContext) recycle(qv *queuedViolation) {
	*qv = queuedViolation{}
	c.spare = append(c.spare, qv)
}

// sig returns a queued entry's witness signature.
func (c *queryContext) sig(qv *queuedViolation) []byte {
	return c.sigs[qv.sig.lo:qv.sig.hi]
}

// queryContext returns the attempt's context, taking one from the
// idle list, or building one, at the attempt's first query.
func (e *Engine) queryContext(u *Update) *queryContext {
	if u.qctx == nil {
		e.idleMu.Lock()
		if n := len(e.idle); n > 0 {
			u.qctx = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		}
		e.idleMu.Unlock()
		if u.qctx == nil {
			u.qctx = &queryContext{home: e}
			obsQueryContexts.Inc()
		}
		e.store.SnapInto(&u.qctx.snap, u.Number)
	}
	return u.qctx
}

// queryEngine returns the engine's query engine pointed at snap,
// building it at the first step. A query engine is not safe for
// concurrent use; one goroutine steps the engine at a time, and only
// stepReads calls this.
func (e *Engine) queryEngine(snap *storage.Snapshot) *query.Engine {
	if e.qe == nil {
		obsQueryEngines.Inc()
		e.qe = query.NewEngine(nil)
	}
	e.qe.SetSnapshot(snap)
	return e.qe
}

// giveBack returns a context to the idle list. More spare queue
// entries or seeded results than maxIdleEntries, or a signature arena
// past maxIdleSigs, is dropped: one long queue would otherwise stay
// reachable for the context's lifetime.
func (e *Engine) giveBack(c *queryContext) {
	if len(c.spare) > maxIdleEntries {
		clear(c.spare[maxIdleEntries:])
		c.spare = c.spare[:maxIdleEntries]
	}
	if cap(c.viols) > maxIdleEntries {
		c.viols = nil
	}
	if cap(c.sigs) > maxIdleSigs {
		c.sigs = nil
	}
	e.idleMu.Lock()
	e.idle = append(e.idle, c)
	e.idleMu.Unlock()
}

// Bounds on what an idle context keeps: spare queue entries and seeded
// results, and signature arena bytes. The arena bound is the smallest
// power of two under which the longest queues of Quick() with 2,000
// inserts keep their arena (about 55 KiB at the largest): at 32 KiB a
// long queue regrew it every attempt, and serial.Execute allocated
// 3,621 B per update there against 2,917 B under this bound (4,487 B
// under 4 KiB).
const (
	maxIdleEntries = 64
	maxIdleSigs    = 64 << 10
)

// StepResult reports what one chase step did.
type StepResult struct {
	// Writes are the storage writes the step performed. The slice is
	// the engine's reused buffer: it is valid until the engine's next
	// step, of any update, and callers must not keep it longer. Reset
	// and Cancel leave it alone, so an abort wave may walk it.
	Writes []storage.WriteRec
	// State is the update's state after the step.
	State State
}

// ErrStepLimit is returned when an update exceeds MaxStepsPerAttempt.
var ErrStepLimit = fmt.Errorf("chase: step limit exceeded")

// Step executes one chase step for the update (Algorithm 2): it
// performs the pending write set, discovers the violations those
// writes caused (logging the violation queries), rechecks the queue,
// and processes pending violations until corrective writes are planned
// for the next step or every remaining violation awaits a frontier
// operation.
//
// Step is the composition of its mutating half, stepWrites, and its
// read half, stepReads.
func (e *Engine) Step(u *Update) (StepResult, error) {
	res, err := e.stepWrites(u)
	if err != nil || res.State == StateTerminated || res.State == StateAborted {
		return res, err
	}
	return e.stepReads(u, res.Writes)
}

// stepWrites is the mutating half of one chase step: it performs the
// pending write set against the store (phase 1 of Algorithm 2) and
// returns the write records with the update's state unchanged. On a
// terminated or aborted update it returns immediately without
// touching the store, mirroring Step.
func (e *Engine) stepWrites(u *Update) (StepResult, error) {
	switch u.state {
	case StateTerminated:
		return StepResult{State: StateTerminated}, nil
	case StateAborted:
		return StepResult{State: StateAborted}, fmt.Errorf("chase: stepping aborted update %d", u.Number)
	}
	if e.MaxStepsPerAttempt > 0 && u.Stats.Steps >= e.MaxStepsPerAttempt {
		return StepResult{State: u.state}, ErrStepLimit
	}
	u.Stats.Steps++
	obsSteps.Inc()

	writes, err := e.performWrites(u)
	if err != nil {
		return StepResult{Writes: writes, State: u.state}, err
	}
	u.Stats.Writes += len(writes)
	obsWrites.Add(int64(len(writes)))
	return StepResult{Writes: writes, State: u.state}, nil
}

// stepReads is the read-only half of one chase step: violation
// discovery for the performed writes, the queue recheck, and violation
// processing until corrective writes are planned or every pending
// violation awaits a frontier operation (phases 2–4 of Algorithm 2).
// It only reads the store — new writes are merely planned into the
// update's write set — and mutates nothing but the update itself.
func (e *Engine) stepReads(u *Update, writes []storage.WriteRec) (StepResult, error) {
	c := e.queryContext(u)
	qe := e.queryEngine(&c.snap)
	// Entries queued before this step; the rest are discovered on the
	// state the recheck reads.
	old := len(u.queue)
	seq := e.store.CurrentSeq()
	foreign := seq-u.checkedSeq != int64(len(writes))
	u.checkedSeq = seq

	// Phase 2: discover new violations caused by the writes.
	for i := range writes {
		e.discoverViolations(u, qe, &writes[i])
	}

	// Phase 3: recheck the queue — remove violations just corrected.
	if testRecheck != nil {
		testRecheck(u, qe, func() int { return recheckQueue(u, qe, writes, old, foreign) })
	} else {
		recheckQueue(u, qe, writes, old, foreign)
	}

	// Phase 4: process pending violations until writes are planned or
	// all pending violations turn into frontier requests.
	for len(u.writeSet) == 0 {
		qv := e.nextPending(u)
		if qv == nil {
			break
		}
		if err := e.planRepair(u, qv); err != nil {
			return StepResult{Writes: writes, State: u.state}, err
		}
	}

	// Determine the resulting state.
	switch {
	case len(u.writeSet) > 0:
		u.state = StateReady
	case len(u.queue) == 0:
		u.state = StateTerminated
		u.releaseContext()
	default:
		u.state = StateAwaitingUser
	}
	return StepResult{Writes: writes, State: u.state}, nil
}

// performWrites executes the planned write set, logging the content
// and null-occurrence reads those writes imply.
func (e *Engine) performWrites(u *Update) ([]storage.WriteRec, error) {
	ops := u.writeSet
	clear(e.writes)
	out := e.writes[:0]
	// The next write set is planned into the same array once these
	// writes are performed; the store keeps copies, never an op. The
	// records go out in the engine's buffer (StepResult.Writes).
	defer func() {
		clear(ops)
		u.writeSet, e.writes = ops[:0], out
	}()
	for i := range ops {
		op := &ops[i]
		done := len(out)
		switch op.Kind {
		case OpInsert:
			_, rec, inserted, err := e.store.Insert(u.Number, op.Tuple)
			if err != nil {
				return out, err
			}
			// Set semantics make every insert a content read: a no-op
			// depends on the duplicate's presence, and a real insert
			// depends just as much on its absence — if a lower-numbered
			// update later writes the same fact, the serial execution
			// would have no-op'ed here, so the stored probe must exist
			// for Algorithm 4 to abort and rerun this update.
			if e.logsReads() {
				e.record(u, e.reads.content(op.Tuple.Rel, contentVals(op.Tuple.Vals, rec.After), u.Number))
			}
			if inserted {
				out = append(out, rec)
			}
		case OpDelete:
			recs, err := e.store.DeleteContent(u.Number, op.Tuple)
			if err != nil {
				return out, err
			}
			// The set of copies removed is a content read.
			if e.logsReads() {
				var removed []model.Value
				if len(recs) > 0 {
					removed = recs[0].Before
				}
				e.record(u, e.reads.content(op.Tuple.Rel, contentVals(op.Tuple.Vals, removed), u.Number))
			}
			out = append(out, recs...)
		case OpDeleteID:
			rec, ok, err := e.store.Delete(u.Number, op.ID)
			if err != nil {
				return out, err
			}
			if ok {
				out = append(out, rec)
			}
		case OpReplaceNull:
			// The set of rewritten tuples is the null-occurrence read.
			if e.logsReads() {
				e.record(u, e.reads.nullOcc(op.Null, u.Number))
			}
			recs, err := e.store.ReplaceNull(u.Number, op.Null, op.With)
			if err != nil {
				return out, err
			}
			out = append(out, recs...)
		}
		u.trace(out[done:], op)
	}
	return out, nil
}

// contentVals picks the value slice a content read stores for an
// operation's fact: the store's own immutable copy of the same content
// when the write produced one (the defensive copy the store already
// made), else a copy of the caller's slice, which the caller may reuse.
func contentVals(opVals, stored []model.Value) []model.Value {
	if stored != nil {
		return stored
	}
	return append([]model.Value(nil), opVals...)
}

// discoverViolations runs the seeded violation queries for one write
// (the reads of Algorithm 2's discovery phase) and enqueues new
// violations. Inserts seed through LHS atoms (they can only create
// LHS-violations); deletes seed through RHS atoms (RHS-violations);
// modifications are treated as delete-then-insert but — per §2 — can
// only surface LHS-violations, because null-replacement changes all
// occurrences consistently, so the delete side cannot strand an RHS.
func (e *Engine) discoverViolations(u *Update, qe *query.Engine, w *storage.WriteRec) {
	switch w.Op {
	case storage.OpInsert:
		e.seedAndEnqueue(u, qe, w.Rel, w.After, query.SeedLHS)
	case storage.OpDelete:
		e.seedAndEnqueue(u, qe, w.Rel, w.Before, query.SeedRHS)
	case storage.OpModify:
		// Null-replacement: the new values may complete LHS joins.
		e.seedAndEnqueue(u, qe, w.Rel, w.After, query.SeedLHS)
	}
}

// seedAndEnqueue runs, logs and harvests the violation query of every
// mapping a write of vals into rel can violate on the given side. With
// a read log, each query is stored into a record from the engine's
// read pool.
func (e *Engine) seedAndEnqueue(u *Update, qe *query.Engine, rel string, vals []model.Value, side query.Side) {
	if vals == nil {
		return
	}
	mappings := e.tgds.WithLHSRelation(rel)
	if side == query.SeedRHS {
		mappings = e.tgds.WithRHSRelation(rel)
	}
	c := u.qctx
	for _, t := range mappings {
		vs := c.viols[:0]
		vs = qe.AppendViolationsSeeded(vs, t, rel, vals, side)
		if e.logsReads() {
			rq := e.reads.violation(vs)
			rq.Store(qe, t, rel, vals, side, vs)
			e.record(u, rq)
		}
		c.viols = vs
		for i := range vs {
			c.enqueue(u, qe, vs[i], side == query.SeedLHS)
		}
	}
	clear(c.viols)
}

// enqueue adds a violation to the update's queue unless the same
// violation is already present, rendering its canonical witness
// signature into the arena for content-ordered processing (see
// nextPending).
func (c *queryContext) enqueue(u *Update, qe *query.Engine, v query.Violation, isLHS bool) {
	if u.findQueued(&v) != nil {
		return
	}
	lo := len(c.sigs)
	c.sigs = qe.AppendWitnessSig(c.sigs, &v)
	qv := c.entry()
	*qv = queuedViolation{v: v, isLHS: isLHS, sig: sigSpan{int32(lo), int32(len(c.sigs))}}
	u.queue = append(u.queue, qv)
	obsViolations.Inc()
}

// testRecheck, when non-nil, runs every step's queue recheck (the
// recheck argument) in its place, so that tests can compare the queue
// with a full recheck's.
var testRecheck func(u *Update, qe *query.Engine, recheck func() int)

// recheckQueue removes queue entries whose violation no longer holds —
// "violQueue.remove(violations just corrected)" in Algorithm 1 — and
// reactivates entries whose planned repair did not stick. Entries that
// still hold carry their witness's current values
// (query.Engine.Recheck).
//
// Only an entry queued before this step (queue[:old]) that something
// since its last check may have changed is re-evaluated: a write of
// this step on a witness tuple, an insert or modify that could give it
// RHS support (query.Violation.CouldSupport), or a frontier
// substitution of its values (dirty). Deletes can only take support
// away, and only the witness determines the values. When another
// update wrote or aborted since the last recheck (foreign) every old
// entry is re-evaluated. An entry not re-evaluated keeps the verdict
// and values a re-evaluation would give; entries discovered in this
// step were found on the state the recheck would read. It returns the
// number of re-evaluations, which it counts with one add per step.
func recheckQueue(u *Update, qe *query.Engine, writes []storage.WriteRec, old int, foreign bool) int {
	c := u.qctx
	n, live := 0, 0
	kept := u.queue[:0]
	for i, qv := range u.queue {
		if i < old && (foreign || qv.dirty || touched(&qv.v, writes)) {
			n++
			qv.dirty = false
			if !qe.Recheck(&qv.v) {
				if qv.group != nil {
					u.removeGroup(qv.group)
				}
				c.recycle(qv)
				continue
			}
		}
		if qv.state == ViolRepairing {
			// The deterministic repair should have corrected it; if it
			// is still here the repair raced with something — retry.
			qv.state = ViolPending
		}
		live += int(qv.sig.hi - qv.sig.lo)
		kept = append(kept, qv)
	}
	clear(u.queue[len(kept):])
	u.queue = kept
	if len(c.sigs) > 2*live {
		c.compactSigs(kept)
	}
	obsRechecks.Add(int64(n))
	return n
}

// compactSigs moves the queued entries' signatures to the front of the
// arena, dropping those of entries that left the queue, so that the
// arena of a long attempt stays within twice its live bytes. Queue
// order is enqueue order, so the spans ascend and each moves down.
func (c *queryContext) compactSigs(queue []*queuedViolation) {
	w := int32(0)
	for _, qv := range queue {
		n := qv.sig.hi - qv.sig.lo
		copy(c.sigs[w:], c.sigs[qv.sig.lo:qv.sig.hi])
		qv.sig = sigSpan{w, w + n}
		w += n
	}
	c.sigs = c.sigs[:w]
}

// touched reports whether one of a step's writes may change a queued
// violation's Recheck verdict or values (see recheckQueue).
func touched(v *query.Violation, writes []storage.WriteRec) bool {
	for i := range writes {
		w := &writes[i]
		if slices.Contains(v.Witness, w.ID) || w.After != nil && v.CouldSupport(w.Rel, w.After) {
			return true
		}
	}
	return false
}

// nextPending returns the pending violation with the smallest
// canonical witness signature (ties keep queue order). Signature
// order, unlike queue (discovery) order, is a function of database
// content alone: discovery enumerates join candidates in tuple-ID
// order, and IDs are minted in execution-schedule order, so queue
// order silently differs between serial and concurrent runs of the
// same workload — and the violation processed first decides which
// frontier group opens first, which context the user answers first,
// and therefore which of several self-consistent final instances the
// chase converges to. Processing by signature pins that choice to
// content, which the serial-equivalence batteries rely on.
func (e *Engine) nextPending(u *Update) *queuedViolation {
	c := u.qctx
	var best *queuedViolation
	for _, qv := range u.queue {
		if qv.state != ViolPending {
			continue
		}
		if best == nil || bytes.Compare(c.sig(qv), c.sig(best)) < 0 {
			best = qv
		}
	}
	return best
}

// planRepair processes one violation (the second half of Algorithm 2):
// deterministic repairs plan corrective writes for the next step;
// nondeterministic ones open a frontier group and await a user.
func (e *Engine) planRepair(u *Update, qv *queuedViolation) error {
	if qv.isLHS {
		return e.planForward(u, qv)
	}
	return e.planBackward(u, qv)
}

// planForward handles an LHS-violation (§2.2). The missing RHS tuples
// are generated with fresh nulls for the existential variables; for
// each generated tuple the correction query "is any visible tuple more
// specific than it?" is performed and logged. Nondeterminism is
// per path, as in the paper's chase tree: generated tuples without a
// more specific counterpart are inserted (their path advances), while
// tuples with one become positive frontier tuples and stop their path
// awaiting a frontier operation.
func (e *Engine) planForward(u *Update, qv *queuedViolation) error {
	minted, err := e.mint(u, e.minted[:0], len(qv.v.TGD.ExistentialVars()))
	e.minted = minted
	if err != nil {
		return err
	}
	tuples := query.InstantiateRHS(qv.v.TGD, qv.v.Vals, minted, e.generated[:0])
	e.generated = tuples
	c := e.queryContext(u)
	frontier := e.frontier[:0]
	for _, t := range tuples {
		// The generated tuple's values are never modified in place
		// (substitutions copy), so the stored pattern shares them.
		if e.logsReads() {
			e.record(u, e.reads.moreSpecific(t, u.Number))
		}
		if c.snap.AnyMoreSpecific(t) {
			frontier = append(frontier, t)
		} else {
			u.writeSet = append(u.writeSet, Insert(t).because(causeForward, qv.v.TGD.Name))
		}
	}
	clear(tuples)
	if len(frontier) == 0 {
		qv.state = ViolRepairing
		return nil
	}
	g := &FrontierGroup{
		ID:             u.nextGID,
		Positive:       true,
		Viol:           qv.v,
		Tuples:         slices.Clone(frontier),
		patternsLogged: true,
	}
	clear(frontier)
	e.frontier = frontier[:0]
	u.nextGID++
	u.groups = append(u.groups, g)
	qv.state = ViolAwaitingUser
	qv.group = g
	u.Stats.FrontierRequests++
	obsFrontierRequests.Inc()
	return nil
}

// mint appends n labeled nulls to dst, named (e.space, update,
// ordinal) by model.MintedNull with u's next ordinals: the one place
// the chase creates nulls. A name says where a null was minted, never
// when, and that makes Theorem 4.4's serial equivalence byte equality.
// A committed attempt of update k read exactly what the serial
// execution (Definition 3.4) would have, since concurrency control
// aborts every attempt whose reads a lower-numbered update's writes
// changed; its step order is a function of content (nextPending) and a
// deterministic user decides by (seed, update, frontier ordinal,
// context); so it mints the serial run's nulls in the serial run's
// order, in the namespace a store loaded alike reserves alike.
//
// Names never collide. Counter nulls (FreshNull, parsed, loaded) have
// their own range. Engines on one store reserve distinct namespaces,
// past the namespace of every null loaded or recovered before their
// first mint. In one engine, a number names one update, and its
// ordinals restart (Update.Reset) only after the attempt's writes were
// rolled back with every update that read them. A caller running one
// update at a time may name each by its place among the committed ones
// instead (Update.NamedAs): only commits leave nulls behind. A field
// that runs out fails the update with a *model.NullNameError.
func (e *Engine) mint(u *Update, dst []model.Value, n int) ([]model.Value, error) {
	e.spaceOnce.Do(func() { e.space = e.store.ReserveNullSpace() })
	number := u.Number
	if u.NamedAs > 0 {
		number = u.NamedAs
	}
	for range n {
		v, err := model.MintedNull(e.space, number, u.ordinal)
		if err != nil {
			return dst, fmt.Errorf("chase: update %d: %w", u.Number, err)
		}
		u.ordinal++
		dst = append(dst, v)
	}
	return dst, nil
}

// planBackward handles an RHS-violation (§2.3). The witness tuples are
// the deletion candidates; with a single distinct candidate the repair
// is deterministic, otherwise the candidates become negative frontier
// tuples and a user selects the subset to delete. No further reads are
// performed — the witness was already read.
func (e *Engine) planBackward(u *Update, qv *queuedViolation) error {
	// A witness has one tuple per atom, so a linear membership test
	// deduplicates it.
	candidates := e.candidates[:0]
	for _, id := range qv.v.Witness {
		if !slices.Contains(candidates, id) {
			candidates = append(candidates, id)
		}
	}
	e.candidates = candidates
	if len(candidates) == 1 {
		u.writeSet = append(u.writeSet, DeleteID(candidates[0]).because(causeBackward, qv.v.TGD.Name))
		qv.state = ViolRepairing
		return nil
	}
	g := &FrontierGroup{
		ID:         u.nextGID,
		Positive:   false,
		Viol:       qv.v,
		Candidates: slices.Clone(candidates),
	}
	u.nextGID++
	u.groups = append(u.groups, g)
	qv.state = ViolAwaitingUser
	qv.group = g
	u.Stats.FrontierRequests++
	obsFrontierRequests.Inc()
	return nil
}
