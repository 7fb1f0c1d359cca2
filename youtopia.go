// Package youtopia is a Go implementation of the cooperative update
// exchange system of Kot and Koch, "Cooperative Update Exchange in the
// Youtopia System" (VLDB 2009).
//
// A repository is a set of relations connected by mappings
// (tuple-generating dependencies). User operations — tuple insertion,
// tuple deletion, and null-replacement — propagate through the
// mappings by a cooperative chase: deterministic repairs happen
// automatically, while ambiguous ones stop at frontier tuples that a
// user resolves with simple operations (expand, unify, delete a
// subset). Mapping cycles are permitted; nontermination is controlled
// rather than forbidden.
//
// Concurrent updates run under optimistic multiversion concurrency
// control: every chase step's reads are recorded, writes by
// higher-priority updates are checked against them, and conflicting
// updates abort and restart, with cascading aborts determined by the
// NAIVE, COARSE or PRECISE dependency algorithms of the paper.
// Workloads execute on the cooperative interleaver of the paper's
// experiments, on the calling goroutine: each round gives the
// unfinished updates one chase step each, and SchedulerConfig.Workers
// bounds how many a round serves.
//
// Quick start:
//
//	repo, _, err := youtopia.Open(`
//	    relation C(city)
//	    relation S(code, location, city_served)
//	    mapping sigma1: C(c) -> exists a, l: S(a, l, c)
//	    mapping sigma2: S(a, l, c) -> C(l), C(c)
//	    tuple C("Ithaca")
//	    tuple S("SYR", "Syracuse", "Ithaca")
//	`)
//	if err != nil { ... }
//	stats, err := repo.Apply(
//	    youtopia.Insert(youtopia.NewTuple("C", youtopia.Const("Boston"))),
//	    youtopia.RandomUser(42))
//
// The examples/ directory contains complete programs: the paper's
// Figure 2 travel repository, the cyclic genealogy scenario of §2.2,
// and a concurrent workload comparing the abort algorithms.
package youtopia

import (
	"youtopia/internal/cc"
	"youtopia/internal/chase"
	"youtopia/internal/core"
	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/parse"
	"youtopia/internal/query"
	"youtopia/internal/simuser"
	"youtopia/internal/storage"
	"youtopia/internal/tgd"
	"youtopia/internal/wal"
)

// Core data model.
type (
	// Value is an attribute value: a constant or a labeled null.
	Value = model.Value
	// Tuple is a row of a relation.
	Tuple = model.Tuple
	// Schema is the set of declared relations.
	Schema = model.Schema
	// TGD is a mapping (tuple-generating dependency).
	TGD = tgd.TGD
	// MappingSet is an ordered collection of mappings.
	MappingSet = tgd.Set
)

// Repository is a Youtopia repository; see package core.
type Repository = core.Repository

// CQ is a conjunctive query over the repository, evaluated under the
// certain or best-effort semantics (§1.2 of the paper).
type CQ = query.CQ

// Update-exchange surface.
type (
	// Op is a database operation: the initial operation of an update.
	Op = chase.Op
	// Update is a running update (Definition 2.6 of the paper).
	Update = chase.Update
	// FrontierGroup is a set of frontier tuples awaiting a user.
	FrontierGroup = chase.FrontierGroup
	// Decision is a frontier operation.
	Decision = chase.Decision
	// User supplies frontier operations for blocked updates.
	User = chase.User
	// UserFunc adapts a function to the User interface.
	UserFunc = chase.UserFunc
	// Stats summarizes one update's chase.
	Stats = chase.Stats
)

// Concurrency control surface.
type (
	// Tracker determines cascading aborts (NAIVE, COARSE, PRECISE).
	Tracker = cc.Tracker
	// SchedulerConfig parameterizes concurrent execution. Its Workers
	// field is the round width: a round serves at most that many
	// updates, and zero serves every unfinished one. The committed
	// final instance is serializable at every width.
	SchedulerConfig = cc.Config
	// Metrics reports a concurrent run's outcome.
	Metrics = cc.Metrics
	// WriteRec describes one performed write.
	WriteRec = storage.WriteRec
)

// Frontier operation kinds (§2.2, §2.3).
const (
	// DecideExpand inserts a positive frontier tuple.
	DecideExpand = chase.DecideExpand
	// DecideUnify collapses a positive frontier tuple onto a more
	// specific existing tuple.
	DecideUnify = chase.DecideUnify
	// DecideDelete removes a subset of a negative frontier group.
	DecideDelete = chase.DecideDelete
	// DecideReconfirm protects a subset of a negative frontier group.
	DecideReconfirm = chase.DecideReconfirm
)

// Const returns a constant value.
func Const(s string) Value { return model.Const(s) }

// NullValue returns the labeled null with the given identifier. Fresh
// nulls should normally come from Repository.FreshNull.
func NullValue(id int64) Value { return model.Null(id) }

// NewTuple builds a tuple.
func NewTuple(rel string, vals ...Value) Tuple { return model.NewTuple(rel, vals...) }

// NewSchema returns an empty schema.
func NewSchema() *Schema { return model.NewSchema() }

// Insert returns an insert operation.
func Insert(t Tuple) Op { return chase.Insert(t) }

// Delete returns a delete operation (removes the fact).
func Delete(t Tuple) Op { return chase.Delete(t) }

// ReplaceNull returns a null-replacement operation: every occurrence
// of the labeled null x becomes the value with.
func ReplaceNull(x, with Value) Op { return chase.ReplaceNull(x, with) }

// Durability surface. A repository opened with a non-empty
// Options.DataDir keeps a segmented, CRC-checked write-ahead log plus
// periodic checkpoints under that directory: every commit batch is
// appended to the log, and nothing is acknowledged — Apply returning,
// RunConcurrent returning, Close — before a covering fsync made it
// durable; the goroutine that waits runs that fsync, so a concurrent
// run syncs once for all its batches. Reopening the directory
// recovers the committed instance exactly — a crash at any point
// loses nothing that was acknowledged, and a committed batch is
// recovered all-or-nothing. Call Repository.Close when done with a
// durable repository.
type (
	// Options selects how a repository is backed; the zero value is
	// the in-memory default.
	Options = core.Options
	// SyncPolicy selects when the write-ahead log is fsynced.
	SyncPolicy = wal.SyncPolicy
	// RecoveryInfo reports what opening a durable repository recovered.
	RecoveryInfo = wal.RecoveryInfo
)

const (
	// SyncAlways fsyncs once per commit batch (the durable default).
	SyncAlways = wal.SyncAlways
	// SyncNever leaves flushing to the OS: faster, and a crash may
	// lose recent commit batches but never tears one.
	SyncNever = wal.SyncNever
)

// Failure surface. An I/O failure on the log is never retried: a
// failed fsync may already have lost the bytes it was to make durable,
// so a later one that succeeds proves nothing. The failure (ENOSPC
// included) degrades the repository to read-only — reads and inbox
// listing keep serving, new updates are rejected with ErrReadOnly until
// Repository.Resume proves the write path works again (disk-full
// degradations also re-arm automatically once space returns); commits
// whose fsync failed are made durable by a rescue checkpoint first.
// Only failures that leave the log in an unknowable state poison it,
// which is terminal until the directory is reopened.
type (
	// Health is a snapshot of the durable backing's failure state
	// (Repository.Health; the zero value is healthy).
	Health = wal.Health
	// State is the repository health state: StateHealthy,
	// StateDegraded (read-only), or StatePoisoned.
	State = wal.State
)

const (
	// StateHealthy accepts updates; the log is at full function.
	StateHealthy = wal.StateHealthy
	// StateDegraded is read-only after an I/O failure; Resume re-arms
	// it.
	StateDegraded = wal.StateDegraded
	// StatePoisoned is terminal: reopen the data directory to recover
	// the durable prefix.
	StatePoisoned = wal.StatePoisoned
)

// Failure sentinels, matched with errors.Is against rejected updates
// and refused opens.
var (
	// ErrReadOnly marks updates rejected while the log is degraded.
	ErrReadOnly = wal.ErrReadOnly
	// ErrPoisoned marks updates rejected after the log poisoned.
	ErrPoisoned = wal.ErrPoisoned
	// ErrShardedLayout marks an Open refused because the data
	// directory holds the shard-<k> log layout of an older release.
	ErrShardedLayout = wal.ErrShardedLayout
)

// New creates an in-memory repository from a schema and mappings.
func New(schema *Schema, mappings *MappingSet) (*Repository, error) {
	return core.New(schema, mappings)
}

// NewWithOptions is New with a backing selection (Options.DataDir
// enables the write-ahead log).
func NewWithOptions(schema *Schema, mappings *MappingSet, opts Options) (*Repository, error) {
	return core.NewWithOptions(schema, mappings, opts)
}

// Open parses a repository definition in the textual repository
// language (see internal/parse) and returns the repository plus any
// update operations the document contains.
func Open(source string) (*Repository, []Op, error) {
	return core.Open(source)
}

// OpenWithOptions is Open with a backing selection: on a fresh
// DataDir the document's tuples bootstrap the committed instance;
// once the directory holds durable state, that state alone is
// recovered and the document's tuple section is ignored (committed
// deletions stay deleted).
func OpenWithOptions(source string, opts Options) (*Repository, []Op, error) {
	return core.OpenWithOptions(source, opts)
}

// OpenDocument is Open returning the full parsed document, including
// declared conjunctive queries.
func OpenDocument(source string) (*Repository, *Document, error) {
	return core.OpenDocument(source)
}

// OpenDocumentWithOptions is OpenDocument with a backing selection.
func OpenDocumentWithOptions(source string, opts Options) (*Repository, *Document, error) {
	return core.OpenDocumentWithOptions(source, opts)
}

// Document is a parsed repository definition.
type Document = parse.Document

// RandomUser returns the paper's §6 simulated user: frontier
// operations chosen uniformly at random among the available
// alternatives, deterministically by seed.
func RandomUser(seed uint64) User { return simuser.New(seed) }

// UnifyFirstUser returns a user that unifies whenever possible — the
// knowledgeable human who short-circuits infinite cascades (§2.2).
func UnifyFirstUser() User { return simuser.UnifyFirst() }

// SilentUser returns a user that never answers: updates that block on
// a frontier question park in the decision inbox (ErrParked) instead
// of completing inline — the asynchronous curator workflow.
func SilentUser() User { return simuser.Silent() }

// Cascading-abort trackers (§5.1).
var (
	// Naive aborts every lower-priority update when any update aborts.
	Naive Tracker = cc.Naive{}
	// Coarse tracks read dependencies at relation granularity.
	Coarse Tracker = cc.Coarse{}
	// Precise computes exact read dependencies against the database.
	Precise Tracker = cc.Precise{}
)

// ErrProtectedCascade is returned by Repository.Apply when a deletion
// would cascade into a protected relation (§2.1).
var ErrProtectedCascade = core.ErrProtectedCascade

// Decision-inbox surface. When an update's chase blocks on a frontier
// question its user cannot answer yet, Repository.Apply parks the
// update instead of failing: the open question becomes an addressable
// InboxEntry that can be listed, claimed, and answered later — on a
// durable repository, after a process restart too (parks and answers
// are write-ahead-logged, and reopening the data directory restores
// the inbox and resumes what the recorded answers already complete).
// Per-entry policies cover curators who never answer: a deadline that
// auto-answers via a fallback user or aborts the parked update, and
// periodic priority escalation.
type (
	// InboxEntry is one parked decision.
	InboxEntry = inbox.Entry
	// InboxPolicy is a per-entry timeout/escalation policy, in logical
	// ticks (advanced by Repository.InboxTick).
	InboxPolicy = inbox.Policy
	// InboxStatus is an entry's lifecycle state.
	InboxStatus = inbox.Status
	// InboxBox is the shared in-memory decision inbox; hand one to
	// SchedulerConfig.Inbox to make the concurrent scheduler park
	// blocked updates instead of busy-repolling their users.
	InboxBox = inbox.Box
)

// Inbox entry statuses and deadline actions.
const (
	// InboxPending means the question awaits a curator.
	InboxPending = inbox.Pending
	// InboxClaimed means a curator took the question.
	InboxClaimed = inbox.Claimed
	// InboxAnswered means an answer was recorded and the update is
	// resuming.
	InboxAnswered = inbox.Answered
	// DeadlineNone lets entries wait indefinitely.
	DeadlineNone = inbox.DeadlineNone
	// DeadlineAutoAnswer answers expired entries via the fallback user.
	DeadlineAutoAnswer = inbox.DeadlineAutoAnswer
	// DeadlineAbort cancels expired entries' updates.
	DeadlineAbort = inbox.DeadlineAbort
)

// NewInbox returns an empty decision inbox for SchedulerConfig.Inbox.
func NewInbox() *InboxBox { return inbox.NewBox() }

// ErrParked matches (via errors.Is) the error Repository.Apply returns
// when it parked the update in the decision inbox; the error is a
// *ParkedError carrying the entry ID.
var ErrParked = core.ErrParked

// ParkedError reports that Apply parked its update; answer the entry
// with Repository.AnswerInbox.
type ParkedError = core.ParkedError

// OptionsError reports an Options field the repository constructors
// refuse (Options.Validate).
type OptionsError = core.OptionsError
