package chase

import (
	"fmt"
)

// User supplies frontier operations for blocked updates. A User is
// consulted with one open group at a time, together with the currently
// available alternatives and the group's canonical decision context.
// Returning ok == false means no decision is available yet (a human
// who has not answered); the caller retries later.
type User interface {
	Decide(u *Update, g *FrontierGroup, opts []Decision, context string) (Decision, bool)
}

// Forgetter is implemented by stateful users (simuser.User) that keep
// per-update bookkeeping: schedulers call Forget when an update
// reaches a terminal state so long runs do not accumulate state for
// updates that can never be consulted again.
type Forgetter interface {
	Forget(number int)
}

// UserFunc adapts a function to the User interface.
type UserFunc func(u *Update, g *FrontierGroup, opts []Decision, context string) (Decision, bool)

// Decide implements User.
func (f UserFunc) Decide(u *Update, g *FrontierGroup, opts []Decision, context string) (Decision, bool) {
	return f(u, g, opts, context)
}

// Runner executes a single update to completion against an engine,
// consulting a User whenever the chase blocks on frontier operations.
// It is the single-update execution mode — initial database
// bootstrap, examples, and tests use it; concurrent execution is the
// cc package's scheduler.
type Runner struct {
	Engine *Engine
	User   User
}

// ErrNoDecision is returned when the chase is blocked and the user
// provides no operation for any open group.
var ErrNoDecision = fmt.Errorf("chase: blocked with no frontier decision")

// Run drives the update until it terminates. It returns the chase
// statistics of the attempt.
func (r *Runner) Run(u *Update) (Stats, error) {
	for {
		res, err := r.Engine.Step(u)
		if err != nil {
			return u.Stats, err
		}
		switch res.State {
		case StateTerminated:
			return u.Stats, nil
		case StateAwaitingUser:
			ok, err := r.Engine.AskUser(u, r.User)
			if err != nil {
				return u.Stats, err
			}
			if !ok {
				return u.Stats, ErrNoDecision
			}
		}
	}
}

// RunStandard executes the update under the classical (restricted)
// tgd chase semantics: every generated RHS tuple is inserted, frontier
// pauses never happen, and negative frontiers delete their first
// candidate. On weakly acyclic mapping sets this terminates like the
// standard chase of Fagin et al.; on cyclic sets it runs until the
// engine's step limit — precisely the behaviour whose avoidance
// motivates Youtopia's cooperative model (§2.2). It is provided as the
// classical baseline.
func RunStandard(e *Engine, u *Update) (Stats, error) {
	r := &Runner{
		Engine: e,
		User: UserFunc(func(_ *Update, _ *FrontierGroup, opts []Decision, _ string) (Decision, bool) {
			for _, d := range opts {
				if d.Kind == DecideExpand || d.Kind == DecideDelete {
					return d, true
				}
			}
			return Decision{}, false
		}),
	}
	return r.Run(u)
}

// DecideOne obtains one frontier operation for a blocked update
// (Algorithm 1 resumes on the first operation received): it walks the
// open groups in order, enumerates each group's options, renders its
// decision context and calls decide, then applies the first decision
// decide supplies. It reports whether one was applied; an error from
// decide ends the walk before anything is applied. The live group list
// needs no copy: Apply, the one call that changes it, ends the loop.
// opts is valid only during the decide call that receives it.
func (e *Engine) DecideOne(u *Update, decide func(g *FrontierGroup, opts []Decision, ctx string) (Decision, bool, error)) (bool, error) {
	for _, g := range u.Groups() {
		opts := e.scratchOptions(u, g)
		if len(opts) == 0 {
			continue
		}
		d, ok, err := decide(g, opts, e.DecisionContext(u, g))
		if err != nil {
			return false, err
		}
		if ok {
			return true, e.Apply(u, g.ID, d)
		}
	}
	return false, nil
}

// AskUser is DecideOne with user's Decide as the decide call.
func (e *Engine) AskUser(u *Update, user User) (bool, error) {
	return e.DecideOne(u, func(g *FrontierGroup, opts []Decision, ctx string) (Decision, bool, error) {
		d, ok := user.Decide(u, g, opts, ctx)
		return d, ok, nil
	})
}
