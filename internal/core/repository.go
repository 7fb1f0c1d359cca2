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
	// to exercise the log's retry and degradation machinery. Ignored
	// when DataDir is empty.
	FS vfs.FS
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

	// Decision-inbox state: the shared box of parked frontier
	// questions, the default policy stamped on new entries, and the
	// fallback user deadline auto-answers consult.
	box         *inbox.Box
	inboxPolicy inbox.Policy
	fallback    chase.User

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
	r.engine.MaxStepsPerAttempt = 100000
	r.box = inbox.NewBox()
	if r.wal != nil {
		if err := r.recoverParked(); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// FromDocument builds a repository from a parsed document, loading its
// tuples as the committed initial state. The document's update
// operations are returned for the caller to apply (or ignore).
func FromDocument(doc *parse.Document) (*Repository, []chase.Op, error) {
	return FromDocumentWithOptions(doc, Options{})
}

// FromDocumentWithOptions is FromDocument with a backing selection.
// The document's tuples are loaded only when there is no recovered
// durable state — on a fresh data directory they bootstrap the
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
// the access-control check of §2.1. It returns an error for unknown
// relations.
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
// repository is unchanged.
func (r *Repository) Apply(op chase.Op, user chase.User) (chase.Stats, error) {
	stats, _, err := r.ApplyTraced(op, user)
	return stats, err
}

// ApplyTraced is Apply returning, additionally, the update's write
// provenance trace: every performed write paired with the violation
// repair or frontier operation that caused it.
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
	r.mu.Lock()
	defer r.mu.Unlock()
	// Fast-reject before minting an update number: a degraded or
	// poisoned log would veto the commit anyway, but failing here keeps
	// the rejected update out of the numbering sequence and the trace.
	if r.wal != nil {
		if h := r.wal.Health(); h.State != wal.StateHealthy {
			return chase.Stats{}, nil, fmt.Errorf("core: update rejected: %w", h.Err())
		}
	}
	number := r.nextUpdate
	r.nextUpdate++
	r.trace.Note(number, "submit")
	mark := r.store.NullMark()
	u := chase.NewUpdate(number, op)
	stats, err := r.runSingle(u, user)
	if errors.Is(err, errNoAnswer) {
		id, perr := r.parkLocked(u, op)
		r.store.Abort(number)
		u.Cancel() // gives the attempt's query context back
		// The attempt's writes are gone; returning its minted null IDs
		// keeps the resumed replay byte-identical to an inline
		// execution.
		r.store.RewindNulls(mark)
		if perr != nil {
			return stats, u.Trace, perr
		}
		if r.trace.Enabled() {
			r.trace.NoteDetail(number, "park", fmt.Sprintf("entry=%d", id))
		}
		obsParked.Inc()
		return stats, u.Trace, &ParkedError{ID: id}
	}
	if err != nil {
		r.store.Abort(number)
		u.Cancel()
		return stats, u.Trace, err
	}
	r.trace.Note(number, "commit")
	ack, err := r.store.CommitBatchAsync([]int{number})
	if err != nil {
		// The log vetoed the append: nothing was committed anywhere;
		// roll back so the in-memory state matches the log.
		r.store.Abort(number)
		return stats, u.Trace, fmt.Errorf("core: durable commit of update %d: %w", number, err)
	}
	if ack != nil {
		// Apply is synchronous, so its return IS the acknowledgment:
		// block until the covering log sync lands. On failure the
		// update is committed in memory but its durability is unknown
		// — the log refuses further commits until the directory is
		// reopened (which recovers exactly the durable prefix), so the
		// error is surfaced without a rollback (the write log was
		// already retired; aborting a committed writer is impossible).
		if err := ack(); err != nil {
			return stats, u.Trace, fmt.Errorf("core: durable commit of update %d: %w", number, err)
		}
	}
	r.trace.Note(number, "ack")
	obsApplied.Inc()
	return stats, u.Trace, nil
}

// runSingle drives one update to completion, enforcing the protected
// relation guard on every performed write.
func (r *Repository) runSingle(u *chase.Update, user chase.User) (chase.Stats, error) {
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
			if err := r.decideOne(u, user); err != nil {
				return u.Stats, err
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

// decideOne obtains one frontier operation from the user.
func (r *Repository) decideOne(u *chase.Update, user chase.User) error {
	if user == nil {
		return chase.ErrNoDecision
	}
	groups := append([]*chase.FrontierGroup(nil), u.Groups()...)
	for _, g := range groups {
		opts := r.engine.Options(u, g)
		if len(opts) == 0 {
			continue
		}
		ctx := r.engine.DecisionContext(u, g)
		d, ok := user.Decide(u, g, opts, ctx)
		if !ok {
			continue
		}
		return r.engine.Apply(u, g.ID, d)
	}
	return errNoAnswer
}

// RunConcurrent executes a workload of updates under the optimistic
// scheduler. The configuration's Tracker, Policy, Mode and User fields
// select the algorithm variant (Algorithm 4, §5.1, §3); zero values
// mean COARSE, round-robin step interleaving, prevention mode. Updates
// are numbered from the repository's current update counter.
//
// With Workers >= 1 the workload runs on that many goroutines through
// cc.ParallelScheduler (the Policy field is then ignored) — the same
// convention the benches and experiments.RunMode use; Workers of zero
// keeps the cooperative single-goroutine scheduler.
func (r *Repository) RunConcurrent(ops []chase.Op, cfg cc.Config) (cc.Metrics, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	var m cc.Metrics
	var err error
	if cfg.Workers >= 1 {
		m, err = cc.NewParallelScheduler(r.store, r.mappings, cfg).Run(ops)
	} else {
		m, err = cc.NewScheduler(r.store, r.mappings, cfg).Run(ops)
	}
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
	e := query.NewEngine(r.store.Snap(r.nextUpdate))
	return e.CertainAnswers(q), nil
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
	e := query.NewEngine(r.store.Snap(r.nextUpdate))
	return e.BestEffortAnswers(q), nil
}

// Analyze renders the static mapping analyses: dependency cycles and
// weak acyclicity (the restrictions Youtopia lifts, §2.2).
func (r *Repository) Analyze() string {
	return tgd.Describe(r.mappings)
}
