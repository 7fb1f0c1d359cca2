package chase

import (
	"fmt"
	"slices"

	"youtopia/internal/model"
	"youtopia/internal/query"
	"youtopia/internal/storage"
)

// ViolState tracks a queued violation through its repair lifecycle.
type ViolState uint8

const (
	// ViolPending means the violation has not been processed yet.
	ViolPending ViolState = iota
	// ViolRepairing means corrective writes are planned or performed
	// and the violation awaits its post-write recheck.
	ViolRepairing
	// ViolAwaitingUser means a frontier group is open for it.
	ViolAwaitingUser
)

// queuedViolation is a violation queue entry (Algorithm 1). Entries
// are recycled through the attempt's query context (queryContext.entry
// and recycle), never kept by anything but the queue.
type queuedViolation struct {
	v     query.Violation
	state ViolState
	// isLHS records the repair direction: LHS-violations chase forward,
	// RHS-violations backward (§2.1).
	isLHS bool
	// dirty marks an entry whose values a frontier substitution
	// rewrote since its last check (applySubst): the next recheck
	// must re-evaluate it (see recheckQueue).
	dirty bool
	// sig locates the violation's canonical witness signature at
	// enqueue time (query.Engine.AppendWitnessSig) in the query
	// context's signature arena: pending violations are processed in
	// ascending signature order, so repair order — and with it the
	// frontier contexts users see — is a function of database content,
	// not of the physical tuple IDs the execution schedule minted.
	sig   sigSpan
	group *FrontierGroup // open frontier group, if any
}

// sigSpan is a signature's byte range [lo, hi) in queryContext.sigs.
type sigSpan struct{ lo, hi int32 }

// FrontierGroup is the set of frontier tuples produced for one
// violation. For a forward chase these are the positive frontier
// tuples — generated RHS tuples not yet inserted, which may share
// fresh labeled nulls and must be treated consistently (§2.2). For a
// backward chase these are the negative frontier tuples — the witness
// tuples marked as deletion candidates (§2.3).
type FrontierGroup struct {
	// ID is unique within the update, for addressing decisions.
	ID int
	// Positive discriminates forward (true) from backward groups.
	Positive bool
	// Viol is the violation this group repairs; its mapping and witness
	// provide the provenance shown to users.
	Viol query.Violation

	// Tuples are the remaining generated RHS tuples (positive groups),
	// aligned with the mapping's RHS atoms at creation; entries are
	// removed as they are expanded or unified.
	Tuples []model.Tuple

	// Candidates are the remaining deletion candidates (negative
	// groups); reconfirmation removes entries without deleting them.
	Candidates []storage.TupleID

	// patternsLogged marks a positive group whose Tuples' more-specific
	// reads are all in the read log: planForward logged them when it
	// built the group, and a substitution that rewrites a tuple clears
	// it, so positiveOptions logs each pattern once, not at every poll.
	patternsLogged bool
}

// Empty reports whether every frontier tuple of the group has been
// resolved.
func (g *FrontierGroup) Empty() bool {
	if g.Positive {
		return len(g.Tuples) == 0
	}
	return len(g.Candidates) == 0
}

// String renders the group for diagnostics.
func (g *FrontierGroup) String() string {
	if g.Positive {
		return fmt.Sprintf("positive frontier #%d of %s: %v", g.ID, g.Viol.TGD.Name, g.Tuples)
	}
	return fmt.Sprintf("negative frontier #%d of %s: %v", g.ID, g.Viol.TGD.Name, g.Candidates)
}

// State describes an update's lifecycle.
type State uint8

const (
	// StateReady means the update can take a chase step.
	StateReady State = iota
	// StateAwaitingUser means every remaining violation has an open
	// frontier group and no writes are pending: the chase is blocked on
	// frontier operations.
	StateAwaitingUser
	// StateTerminated means the chase ran to completion.
	StateTerminated
	// StateAborted means concurrency control aborted the update; it can
	// be Reset and re-run.
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateAwaitingUser:
		return "awaiting-user"
	case StateTerminated:
		return "terminated"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Stats counts what an update did during its current attempt.
type Stats struct {
	Steps            int
	Writes           int
	FrontierRequests int
	FrontierOps      int
	Expansions       int
	Unifications     int
	DeletionChoices  int
	Reconfirmations  int
}

// Update is a Youtopia update (Definition 2.6): the complete cascade
// of consequences of one initial operation, including the frontier
// operations users perform on its behalf.
//
// Under a read observer the update's read log holds the stored reads
// of its current attempt (StoredReads). The log owns the reads the
// engine built, until ReleaseReads or Reset hands them back to the
// engine's read pool for later reads; a read recorded through
// RecordRead stays the caller's.
type Update struct {
	// Number is the update's priority for serializability; lower is
	// higher priority (§3). It doubles as the MVCC writer number.
	Number int
	// Initial is the user operation that starts the update.
	Initial Op
	// Attempt counts executions: 1 on first run, +1 per abort restart.
	Attempt int
	// NamedAs, when positive, names the update's nulls instead of
	// Number (Engine.mint). Renew clears it.
	NamedAs int

	// Buffers the update reuses: the arrays of writeSet, queue, groups
	// and reads are kept across steps, attempts and Renew, since the
	// attempt carries their contents from one step to the next.
	// Buffers no call leaves anything in (the writes a step hands out
	// as StepResult.Writes, the planning and frontier scratch) belong
	// to the engine that steps the update (Engine).
	state    State
	writeSet []Op
	queue    []*queuedViolation
	groups   []*FrontierGroup
	nextGID  int
	// ordinal numbers the nulls the current attempt minted so far.
	ordinal int
	// checkedSeq is the store's CurrentSeq when the queue was last
	// rechecked: if it moved by more than the update's own writes
	// since, another update wrote or aborted in between, and the next
	// recheck re-evaluates every entry (recheckQueue).
	checkedSeq int64

	// reads are the stored read queries of the current attempt, in the
	// order performed; concurrency control checks writes against them
	// until the update commits. The engine keeps them only while a read
	// observer is installed (Engine.logsReads). The log takes no lock:
	// every reader runs on the goroutine that steps the update, between
	// or inside its steps.
	//
	// The log owns the reads an engine built: ReleaseReads (and so
	// Reset) empties each and gives it back to pool, the read pool of
	// the engine that logged last, which refills it for a later read.
	// A read handed in through RecordRead stays its caller's: once the
	// log holds one (lent), the release gives nothing back.
	reads []query.ReadQuery
	pool  *readPool
	lent  bool

	// qctx is the attempt's query context (Engine.queryContext): nil
	// until the attempt's first query and again once the attempt gave
	// it back. Touched only by the goroutine stepping the update.
	qctx *queryContext

	// Trace records every performed write with its provenance cause,
	// in execution order — the derivation a user interface can show
	// alongside frontier tuples (§2.2). It is kept only under Traced.
	Trace []TraceEntry
	// Traced turns the recording of Trace on. Repository.ApplyTraced
	// sets it; every other path leaves it off, since nothing else reads
	// a trace. It survives Reset and is cleared by Renew.
	Traced bool

	// Stats for the current attempt.
	Stats Stats
}

// NewUpdate creates an update for an initial operation with the given
// priority number (which must be positive; 0 is the committed initial
// database).
func NewUpdate(number int, initial Op) *Update {
	if number <= 0 {
		panic("chase: update numbers start at 1")
	}
	u := &Update{Number: number, Initial: initial}
	u.Reset()
	return u
}

// Renew turns the update into the one NewUpdate(number, initial) would
// build, keeping its buffers. The caller must own the update outright:
// no scheduler, inbox entry or user may still hold it. A trace handed
// out earlier is dropped, never truncated, so it is not written again.
func (u *Update) Renew(number int, initial Op) {
	if number <= 0 {
		panic("chase: update numbers start at 1")
	}
	u.Number, u.Initial, u.Attempt, u.NamedAs = number, initial, 0, 0
	u.Traced = false
	u.Reset()
}

// Reset prepares the update for a (re-)run: pending state is
// discarded and the initial operation is planned again. Storage-level
// rollback of a previous attempt is the caller's responsibility.
func (u *Update) Reset() {
	u.state = StateReady
	u.dropPending()
	u.writeSet = append(u.writeSet, u.Initial.because(causeInitial, ""))
	u.nextGID, u.ordinal = 0, 0
	u.releaseContext()
	u.Attempt++
	u.ReleaseReads()
	u.Trace = nil
	u.Stats = Stats{}
}

// Cancel terminates the update without completing its chase: pending
// writes, queued violations, and open frontier groups are discarded
// and the update reports StateTerminated with nothing left to do. The
// caller must roll the update's storage writes back first — Cancel
// only settles the in-memory chase state, turning the update into an
// empty commit (the deadline-abort path of the decision inbox).
func (u *Update) Cancel() {
	u.state = StateTerminated
	u.dropPending()
	u.releaseContext()
}

// dropPending empties the write set, the queue and the groups. Their
// backing arrays stay for the next attempt, cleared to full capacity
// so that no dropped entry is kept alive; the queue's entries go back
// to the query context they came from.
func (u *Update) dropPending() {
	if c := u.qctx; c != nil {
		for _, qv := range u.queue {
			c.recycle(qv)
		}
		c.sigs = c.sigs[:0]
	}
	clear(u.writeSet[:cap(u.writeSet)])
	clear(u.queue[:cap(u.queue)])
	clear(u.groups[:cap(u.groups)])
	u.writeSet, u.queue, u.groups = u.writeSet[:0], u.queue[:0], u.groups[:0]
}

// releaseContext gives the attempt's query context back to the engine
// it came from (see queryContext for why this is safe from any caller
// holding the update). A context without a home (built by a test) is
// dropped.
func (u *Update) releaseContext() {
	if c := u.qctx; c != nil {
		u.qctx = nil
		if c.home != nil {
			c.home.giveBack(c)
		}
	}
}

// TraceEntry pairs a performed write with the reason the chase
// performed it.
type TraceEntry struct {
	Write storage.WriteRec
	Cause string
}

// String renders the entry.
func (t TraceEntry) String() string {
	return t.Write.String() + "  <- " + t.Cause
}

// RecordRead stores a read query as if an engine call had performed
// it, for tests and probes. The read stays the caller's: no release
// empties it or hands it to a later read (Update.reads).
func (u *Update) RecordRead(q query.ReadQuery) {
	u.reads = append(u.reads, q)
	u.lent = true
}

// StoredReads returns the live read log of the current attempt (see
// Update.reads for who may call it).
func (u *Update) StoredReads() []query.ReadQuery { return u.reads }

// ReleaseReads drops the stored read queries — the commit-time release
// of Algorithm 4 (a committed update's reads can no longer cause
// conflicts). Each read an engine built is emptied and goes back to
// that engine's read pool (Update.reads), so nobody may keep a stored
// read past its release. The log's array stays for the next attempt or
// Renew, cleared to full capacity as dropPending clears the write set,
// so that no dropped read is kept alive.
func (u *Update) ReleaseReads() {
	if u.pool != nil && !u.lent {
		for _, q := range u.reads {
			u.pool.release(q)
		}
	}
	clear(u.reads[:cap(u.reads)])
	u.reads, u.lent = u.reads[:0], false
}

// State returns the update's current lifecycle state.
func (u *Update) State() State { return u.state }

// Positive reports whether this is a positive update (Definition 2.6).
func (u *Update) Positive() bool { return u.Initial.Positive() }

// Groups returns the open frontier groups awaiting user operations.
func (u *Update) Groups() []*FrontierGroup { return u.groups }

// Group looks up an open frontier group by ID.
func (u *Update) Group(id int) (*FrontierGroup, bool) {
	for _, g := range u.groups {
		if g.ID == id {
			return g, true
		}
	}
	return nil, false
}

// QueueLen returns the number of queued violations (all states).
func (u *Update) QueueLen() int { return len(u.queue) }

// String renders the update for diagnostics.
func (u *Update) String() string {
	return fmt.Sprintf("update %d [%s, attempt %d]: %s", u.Number, u.state, u.Attempt, u.Initial)
}

// applySubst rewrites the update's pending state — queued violations'
// values, frontier tuples, and planned writes — under a null
// substitution produced by a unification. While the attempt keeps a
// read log, a queued violation's values are copied before they change:
// a stored read's answer may share them (query.ViolationRead). Without
// one, nothing else reads them, and they change in place.
func (u *Update) applySubst(s model.Subst) {
	for i := range u.writeSet {
		u.writeSet[i] = u.writeSet[i].applySubst(s)
	}
	shared := len(u.reads) > 0
	for _, qv := range u.queue {
		if !s.Touches(qv.v.Vals) {
			continue
		}
		if shared {
			qv.v.Vals = slices.Clone(qv.v.Vals)
		}
		for k, v := range qv.v.Vals {
			if r, ok := s[v]; ok && v.IsNull() {
				qv.v.Vals[k] = r
			}
		}
		qv.dirty = true
	}
	for _, g := range u.groups {
		for i := range g.Tuples {
			if s.Touches(g.Tuples[i].Vals) {
				g.Tuples[i] = s.ApplyTuple(g.Tuples[i])
				g.patternsLogged = false
			}
		}
	}
}

// findQueued locates the queue entry of a violation (query.Violation.
// Same), or nil.
func (u *Update) findQueued(v *query.Violation) *queuedViolation {
	for _, qv := range u.queue {
		if qv.v.Same(v) {
			return qv
		}
	}
	return nil
}

// trace appends the performed writes of one operation to the
// provenance trace, if the update keeps one.
func (u *Update) trace(recs []storage.WriteRec, op *Op) {
	if !u.Traced || len(recs) == 0 {
		return
	}
	cause := op.Cause()
	for i := range recs {
		u.Trace = append(u.Trace, TraceEntry{Write: recs[i], Cause: cause})
	}
}

// removeGroup drops a frontier group.
func (u *Update) removeGroup(g *FrontierGroup) {
	for i, h := range u.groups {
		if h == g {
			u.groups = append(u.groups[:i], u.groups[i+1:]...)
			return
		}
	}
}
