// Package core ties the Youtopia subsystems together into a
// repository: the logical storage abstraction of Figure 1 (schema,
// mappings, versioned tuple store) plus the update exchange module
// (chase engine, concurrency control). It offers two execution modes:
// synchronous single-user updates, where each operation's chase runs
// to completion before the call returns, and concurrent workloads
// under the optimistic scheduler.
package core

import (
	"errors"
	"fmt"
	"sync"

	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/obs"
	"youtopia/internal/parse"
	"youtopia/internal/query"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/vfs"
	"youtopia/internal/wal"
)

// Options selects how a repository is backed.
type Options struct {
	// DataDir, when non-empty, makes the repository durable: a
	// write-ahead log plus checkpoints under this directory. On open,
	// any durable state the directory holds is recovered into the
	// committed instance; every commit batch is then appended to the
	// log before it takes effect. Empty (the default) keeps the store
	// purely in memory — the pre-durability behaviour.
	DataDir string
	// Durability is the log's sync policy (default wal.SyncAlways:
	// one fsync per commit batch, amortized by the group-commit
	// frontier). Ignored when DataDir is empty.
	Durability wal.SyncPolicy
	// CheckpointBytes and SegmentBytes tune the log (0 = wal
	// defaults). Ignored when DataDir is empty.
	CheckpointBytes int64
	SegmentBytes    int64
	// FS overrides the filesystem the write-ahead log runs on (nil =
	// the real one). Fault-injection harnesses pass a vfs.FaultFS here
	// to exercise the log's rescue and degradation paths. Ignored when
	// DataDir is empty.
	FS vfs.FS
}

// OptionsError reports an Options field that NewWithOptions refuses.
type OptionsError struct {
	Field  string // the Options field, e.g. "SegmentBytes"
	Reason string
}

// Error renders the refusal.
func (e *OptionsError) Error() string {
	return "core: invalid option " + e.Field + ": " + e.Reason
}

// Validate reports, as an *OptionsError, the first field that holds a
// value no backing accepts: a negative SegmentBytes (0 selects the
// default size) or a Durability that names no sync policy. A negative
// CheckpointBytes is valid: it turns automatic checkpoints off.
// NewWithOptions calls it before it touches any file.
func (o Options) Validate() error {
	if o.SegmentBytes < 0 {
		return &OptionsError{Field: "SegmentBytes",
			Reason: fmt.Sprintf("%d is negative (0 selects the default)", o.SegmentBytes)}
	}
	switch o.Durability {
	case wal.SyncAlways, wal.SyncNever:
	default:
		return &OptionsError{Field: "Durability",
			Reason: fmt.Sprintf("%d names no sync policy", uint8(o.Durability))}
	}
	return nil
}

// Repository is a Youtopia repository.
type Repository struct {
	mu       sync.Mutex
	schema   *model.Schema
	mappings *tgd.Set
	store    *storage.Store
	engine   *chase.Engine
	wal      *wal.Manager // nil for in-memory repositories

	nextUpdate int
	protected  map[string]bool
	// committed counts the updates the repository's engine committed.
	// An update names its nulls by committed+1 (chase.Update.NamedAs):
	// a parked or failed update commits no null, so any history leaves
	// the names its committed updates, applied inline, would leave.
	committed int

	// spare is the update Apply renews for its next call. Every
	// inline update that ends without parking is given back here.
	spare *chase.Update

	// Decision-inbox state: the shared box of parked frontier
	// questions, the default policy stamped on new entries, and the
	// fallback user deadline auto-answers consult.
	box         *inbox.Box
	inboxPolicy inbox.Policy
	fallback    chase.User

	// qsnap and qe answer Certain and BestEffort under mu: one query
	// engine, re-pointed at each query's reader, whose pools and answer
	// dedup arena stay warm across queries.
	qsnap storage.Snapshot
	qe    *query.Engine

	// trace, when set, records update-lifecycle events (submit, park,
	// answer, resume, commit, ack). Nil — the default — disables
	// recording at the cost of one branch per event.
	trace *obs.Tracer
}

// SetTracer installs an update-lifecycle tracer. Events recorded on a
// resumed update's fresh number are folded into the original update's
// timeline. Pass nil to disable.
func (r *Repository) SetTracer(t *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace = t
}

// New creates an in-memory repository over a schema and mapping set.
// The mapping set is validated; cycles are explicitly permitted
// (§1.3).
func New(schema *model.Schema, mappings *tgd.Set) (*Repository, error) {
	return NewWithOptions(schema, mappings, Options{})
}

// NewWithOptions is New with a backing selection: with Options.DataDir
// set, the store is recovered from (and logged to) that directory.
// Durable repositories should be Closed when done.
func NewWithOptions(schema *model.Schema, mappings *tgd.Set, opts Options) (*Repository, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := mappings.Validate(schema); err != nil {
		return nil, err
	}
	r := &Repository{
		schema:     schema,
		mappings:   mappings,
		protected:  make(map[string]bool),
		nextUpdate: 1,
	}
	wopts := wal.Options{
		Sync:            opts.Durability,
		CheckpointBytes: opts.CheckpointBytes,
		SegmentBytes:    opts.SegmentBytes,
		FS:              opts.FS,
	}
	if opts.DataDir == "" {
		r.store = storage.NewStore(schema)
	} else {
		mgr, st, err := wal.Open(opts.DataDir, schema, wopts)
		if err != nil {
			return nil, err
		}
		r.wal = mgr
		r.store = st
	}
	r.engine = chase.NewEngine(r.store, mappings)
	r.box = inbox.NewBox()
	if r.wal != nil {
		if err := r.recoverParked(); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// FromDocumentWithOptions builds a repository from a parsed document
// with a backing selection, loading its tuples as the committed initial
// state; the document's update operations are returned for the caller
// to apply (or ignore). The tuples are loaded only when there is no
// recovered durable state — on a fresh data directory they bootstrap the
// committed instance and are made durable with a checkpoint (writer-0
// loads bypass the commit log). Once a directory holds durable state,
// that state alone is the truth: reloading the document could
// resurrect tuples that committed updates have since deleted, so it
// is skipped (document edits to initial data do not apply to an
// existing directory).
func FromDocumentWithOptions(doc *parse.Document, opts Options) (*Repository, []chase.Op, error) {
	r, err := NewWithOptions(doc.Schema, doc.Mappings, opts)
	if err != nil {
		return nil, nil, err
	}
	if r.wal == nil || r.wal.Fresh() {
		loaded := 0
		for _, t := range doc.Tuples {
			_, _, inserted, err := r.store.Insert(0, t)
			if err != nil {
				r.Close()
				return nil, nil, err
			}
			if inserted {
				loaded++
			}
		}
		if r.wal != nil && loaded > 0 {
			if err := r.wal.Checkpoint(); err != nil {
				r.Close()
				return nil, nil, err
			}
		}
	}
	return r, doc.Ops, nil
}

// Open parses a repository definition and builds the repository.
func Open(source string) (*Repository, []chase.Op, error) {
	r, doc, err := OpenDocument(source)
	if err != nil {
		return nil, nil, err
	}
	return r, doc.Ops, nil
}

// OpenWithOptions is Open with a backing selection.
func OpenWithOptions(source string, opts Options) (*Repository, []chase.Op, error) {
	r, doc, err := OpenDocumentWithOptions(source, opts)
	if err != nil {
		return nil, nil, err
	}
	return r, doc.Ops, nil
}

// OpenDocument is Open returning the full parsed document, including
// the conjunctive queries it declares.
func OpenDocument(source string) (*Repository, *parse.Document, error) {
	return OpenDocumentWithOptions(source, Options{})
}

// OpenDocumentWithOptions is OpenDocument with a backing selection.
func OpenDocumentWithOptions(source string, opts Options) (*Repository, *parse.Document, error) {
	var nf model.NullFactory
	doc, err := parse.ParseDocument(source, nf.Fresh)
	if err != nil {
		return nil, nil, err
	}
	r, _, err := FromDocumentWithOptions(doc, opts)
	if err != nil {
		return nil, nil, err
	}
	return r, doc, nil
}

// Close releases the repository's durable backing, if any. In-memory
// repositories close trivially; Close is idempotent.
func (r *Repository) Close() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.Close()
}

// Checkpoint forces a checkpoint of a durable repository (shrinking
// the log that recovery must replay) and is a no-op in memory.
func (r *Repository) Checkpoint() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.Checkpoint()
}

// Durable reports whether the repository is backed by a write-ahead
// log.
func (r *Repository) Durable() bool { return r.wal != nil }

// Health reports the durable backing's failure state. In-memory
// repositories are always healthy (the zero Health).
func (r *Repository) Health() wal.Health {
	if r.wal == nil {
		return wal.Health{}
	}
	return r.wal.Health()
}

// Resume attempts to bring a degraded (read-only) repository back to
// accepting updates by proving a full write-path round trip with a
// checkpoint. It is the operator-facing re-arm: call it after clearing
// the fault the log degraded on (freeing disk space, remounting). It
// fails if the underlying condition persists, and cannot revive a
// poisoned log. In-memory repositories resume trivially.
func (r *Repository) Resume() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.Resume()
}

// Recovery reports what opening the repository recovered from its
// data directory (the zero value for in-memory repositories).
func (r *Repository) Recovery() wal.RecoveryInfo {
	if r.wal == nil {
		return wal.RecoveryInfo{}
	}
	return r.wal.Recovery()
}

// Schema returns the repository schema.
func (r *Repository) Schema() *model.Schema { return r.schema }

// Mappings returns the repository's mapping set.
func (r *Repository) Mappings() *tgd.Set { return r.mappings }

// Store exposes the underlying versioned storage backend (read-mostly
// use).
func (r *Repository) Store() storage.Backend { return r.store }

// FreshNull mints a labeled null unused in the repository.
func (r *Repository) FreshNull() model.Value { return r.store.FreshNull() }

// Protect marks a relation as protected: updates whose deletion
// cascade would remove tuples from it are rejected and rolled back —
// the access-control check of §2.1. Apply and ApplyTraced enforce it;
// RunConcurrent, which cannot, refuses to run while any relation is
// protected. It returns an error for unknown relations.
func (r *Repository) Protect(rel string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.schema.Has(rel) {
		return fmt.Errorf("core: cannot protect undeclared relation %s", rel)
	}
	r.protected[rel] = true
	return nil
}

// ErrProtectedCascade is returned when an update's deletions would
// cascade into a protected relation; the update is rolled back.
var ErrProtectedCascade = errors.New("core: deletion cascades into a protected relation")

// Apply runs a single update synchronously: the operation starts a
// chase that is driven to completion, consulting user for frontier
// operations, and commits. On failure — including a cascade into a
// protected relation — the update is rolled back entirely and the
// repository is unchanged. The *chase.Update user is shown is renewed
// for a later call once Apply returns, so user must not keep it.
func (r *Repository) Apply(op chase.Op, user chase.User) (chase.Stats, error) {
	stats, _, err := r.apply(op, user, false)
	return stats, err
}

// ApplyTraced is Apply returning, additionally, the update's write
// provenance trace: every performed write paired with the violation
// repair or frontier operation that caused it. Only ApplyTraced
// records a trace; Apply and the concurrent scheduler do not.
//
// When the chase blocks and the (non-nil) user has no answer yet —
// the "caller retries later" half of the chase.User contract — the
// update is not failed: its writes are rolled back, the open question
// is parked in the decision inbox (durably, with a data directory),
// and a *ParkedError carrying the entry ID is returned. The update
// completes later, when the entry is answered through AnswerInbox (or
// a deadline policy settles it). A nil user keeps the historical
// fail-fast behaviour: there is no one to retry, so the update rolls
// back with chase.ErrNoDecision.
func (r *Repository) ApplyTraced(op chase.Op, user chase.User) (chase.Stats, []chase.TraceEntry, error) {
	return r.apply(op, user, true)
}

// apply is Apply and ApplyTraced.
func (r *Repository) apply(op chase.Op, user chase.User, traced bool) (chase.Stats, []chase.TraceEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	number, err := r.numberLocked()
	if err != nil {
		return chase.Stats{}, nil, err
	}
	r.trace.Note(number, "submit")
	u := r.renewSpare(number, op)
	u.Traced, u.NamedAs = traced, r.committed+1
	stats, err := r.runSingle(u, func(u *chase.Update) (bool, error) {
		if user == nil {
			return false, chase.ErrNoDecision
		}
		return r.engine.AskUser(u, user)
	})
	if errors.Is(err, errNoAnswer) {
		id, err := r.parkLocked(u, 0)
		if err != nil {
			return stats, u.Trace, err
		}
		return stats, u.Trace, &ParkedError{ID: id}
	}
	// Not parked: the update is the repository's alone again.
	r.spare = u
	if err != nil {
		r.store.Abort(number)
		u.Cancel()
		return stats, u.Trace, err
	}
	return stats, u.Trace, r.commitLocked(number)
}

// numberLocked assigns the next update number. It fast-rejects first:
// a degraded or poisoned log would veto the commit anyway, but failing
// here keeps the rejected update out of the numbering sequence and the
// trace. Reading the log's health is also when an ENOSPC-degraded log
// re-checks itself, so the first update after the disk drains is
// admitted. Callers hold r.mu.
func (r *Repository) numberLocked() (int, error) {
	if r.wal != nil {
		if h := r.wal.Health(); h.State != wal.StateHealthy {
			return 0, fmt.Errorf("core: update rejected: %w", h.Err())
		}
	}
	r.nextUpdate++
	return r.nextUpdate - 1, nil
}

// commitLocked commits a terminated update and waits for its
// acknowledgment. Callers hold r.mu.
func (r *Repository) commitLocked(number int) error {
	r.trace.Note(number, "commit")
	ack, err := r.store.CommitBatchAsync([]int{number})
	if err != nil {
		// The log vetoed the append: nothing was committed anywhere;
		// roll back so the in-memory state matches the log.
		r.store.Abort(number)
		return fmt.Errorf("core: durable commit of update %d: %w", number, err)
	}
	r.committed++
	if ack != nil {
		// The caller is synchronous, so its return IS the
		// acknowledgment: block until the covering log sync lands
		// (this goroutine runs it unless one is in flight). On
		// failure the update is committed in memory but its durability
		// is unknown — the log refuses further commits until the
		// directory is reopened (which recovers exactly the durable
		// prefix), so the error is surfaced without a rollback (the
		// write log was already retired; aborting a committed writer is
		// impossible).
		if err := ack(); err != nil {
			return fmt.Errorf("core: durable commit of update %d: %w", number, err)
		}
	}
	r.trace.Note(number, "ack")
	obsApplied.Inc()
	return nil
}

// renewSpare returns the spare update renewed for number and op, or a
// new update when there is none. A parked update is never given back,
// so it is never renewed.
func (r *Repository) renewSpare(number int, op chase.Op) *chase.Update {
	u := r.spare
	if u == nil {
		return chase.NewUpdate(number, op)
	}
	r.spare = nil
	u.Renew(number, op)
	return u
}

// runSingle drives one update to completion, enforcing the protected
// relation guard on every performed write. When the chase blocks, ask
// supplies one frontier operation; when it has none, runSingle returns
// errNoAnswer.
func (r *Repository) runSingle(u *chase.Update, ask func(*chase.Update) (bool, error)) (chase.Stats, error) {
	for {
		res, err := r.engine.Step(u)
		if err != nil {
			return u.Stats, err
		}
		for _, w := range res.Writes {
			if w.Op == storage.OpDelete && r.protected[w.Rel] {
				return u.Stats, fmt.Errorf("%w: delete of %s from protected %s",
					ErrProtectedCascade, model.Tuple{Rel: w.Rel, Vals: w.Before}, w.Rel)
			}
		}
		switch res.State {
		case chase.StateTerminated:
			return u.Stats, nil
		case chase.StateAwaitingUser:
			ok, err := ask(u)
			if err != nil {
				return u.Stats, err
			}
			if !ok {
				return u.Stats, errNoAnswer
			}
		}
	}
}

// errNoAnswer distinguishes "the user has no answer yet" (the chase
// parks and resumes later) from "no user is configured"
// (chase.ErrNoDecision: the update fails and rolls back). The
// chase.User doc contract promises the caller retries on the former;
// parking is how the synchronous path keeps that promise.
var errNoAnswer = errors.New("core: user has no frontier answer yet")

// RunConcurrent executes a workload of updates under the optimistic
// scheduler. The configuration's Tracker, Policy, Mode and User fields
// select the algorithm variant (Algorithm 4, §5.1, §3); zero values
// mean COARSE, round-robin step interleaving, prevention mode. Updates
// are numbered from the repository's current update counter.
//
// Workers is the scheduler's round width: a round serves at most that
// many updates, and zero serves every eligible one. The whole workload
// runs on the calling goroutine.
//
// The scheduler does not enforce protected relations (Protect). While
// any relation is protected, RunConcurrent returns an error wrapping
// ErrProtectedCascade before it numbers or writes anything, and the
// repository is unchanged.
func (r *Repository) RunConcurrent(ops []chase.Op, cfg cc.Config) (cc.Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return cc.Metrics{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.protected) > 0 {
		return cc.Metrics{}, fmt.Errorf("%w: RunConcurrent cannot enforce protected relations; use Apply", ErrProtectedCascade)
	}
	// The scheduler numbers updates 1..n; to compose with single-user
	// updates the repository requires a fresh numbering region. Since
	// committed writers are never revisited, reuse is safe only going
	// upward; enforce it.
	if r.nextUpdate != 1 {
		return cc.Metrics{}, fmt.Errorf("core: RunConcurrent requires a repository without prior updates (have %d); use a fresh repository or run the workload first", r.nextUpdate-1)
	}
	if r.wal != nil {
		if h := r.wal.Health(); h.State != wal.StateHealthy {
			return cc.Metrics{}, fmt.Errorf("core: workload rejected: %w", h.Err())
		}
	}
	if cfg.Trace == nil {
		cfg.Trace = r.trace
	}
	m, err := cc.NewScheduler(r.store, r.mappings, cfg).Run(ops)
	r.nextUpdate = len(ops) + 1
	return m, err
}

// Facts returns the distinct visible facts per relation at the current
// committed state.
func (r *Repository) Facts() map[string][]model.Tuple {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Snap(r.nextUpdate).VisibleFacts()
}

// Dump renders the repository contents as sorted text.
func (r *Repository) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Dump(r.nextUpdate)
}

// Violations returns the current mapping violations (empty after every
// completed update).
func (r *Repository) Violations() []query.Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := query.NewEngine(r.store.Snap(r.nextUpdate))
	return e.AllViolations(r.mappings)
}

// Certain evaluates a conjunctive query under the certain semantics of
// §1.2: only answers that hold under every valuation of the labeled
// nulls ("guarantees correctness while potentially omitting results").
func (r *Repository) Certain(q *query.CQ) ([]model.Tuple, error) {
	if err := q.Validate(r.schema); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queryEngine().CertainAnswers(q), nil
}

// BestEffort evaluates a conjunctive query under the best-effort
// semantics of §1.2: all potentially relevant answers, allowing
// labeled nulls to unify with constants consistently per answer ("at
// the risk of some incorrectness").
func (r *Repository) BestEffort(q *query.CQ) ([]model.Tuple, error) {
	if err := q.Validate(r.schema); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queryEngine().BestEffortAnswers(q), nil
}

// queryEngine returns the repository's query engine reading at the
// next update's priority. Callers hold r.mu.
func (r *Repository) queryEngine() *query.Engine {
	r.store.SnapInto(&r.qsnap, r.nextUpdate)
	if r.qe == nil {
		r.qe = query.NewEngine(&r.qsnap)
	}
	return r.qe
}

// Analyze renders the static mapping analyses: dependency cycles and
// weak acyclicity (the restrictions Youtopia lifts, §2.2).
func (r *Repository) Analyze() string {
	return tgd.Describe(r.mappings)
}
