// Command youtopia loads a repository definition in the textual
// repository language, applies its update operations through the
// cooperative chase, and reports the resulting state.
//
// Usage:
//
//	youtopia [flags] repository.ytp
//
// The file declares relations, mappings, initial tuples and update
// operations (see internal/parse for the grammar). Frontier operations
// are answered interactively on the terminal by default; with -auto
// they are chosen uniformly at random by the paper's simulated user.
//
// Flags:
//
//	-auto uint     answer frontier operations automatically with the
//	               given random seed (0 = interactive)
//	-analyze       print mapping analyses (cycles, weak acyclicity)
//	-data-dir dir  durable repository: recover committed state from
//	               dir's write-ahead log on boot and log every commit
//	               (empty = in-memory)
//	-dump          print the full repository contents at the end
//	-skip-ops      load the repository but do not run its operations
//	-debug-addr a  serve the observability endpoints (/metrics in
//	               Prometheus text format, /healthz — 503 + state name
//	               while the repository is degraded or poisoned —
//	               /debug/vars, /debug/pprof) on address a
//	-resume        re-arm a repository that degraded to read-only
//	               after an I/O failure (run it once the
//	               fault — disk full, bad mount — is cleared)
//	-fault-rate p  inject EIO write/sync faults into the log with
//	               probability p per operation, armed once the
//	               repository is open (testing aid; exercises the
//	               rescue and degradation machinery)
//	-fault-seed n  seed for -fault-rate's fault schedule
//	-trace-out f   record each update's lifecycle spans (submit, park,
//	               answer, resume, commit, ack) and write the
//	               timelines to f as JSON on exit
//
// Decision-inbox flags (the asynchronous curator workflow): with -park
// the document's operations run without a live user, so updates that
// block on a frontier question park in the durable decision inbox
// instead of prompting; a later invocation on the same -data-dir lists
// the open questions with -inbox and settles them with -claim,
// -answer, or -cancel — the parked update resumes where it stopped,
// across process restarts.
//
//	-park            park blocked updates in the inbox instead of
//	                 prompting (ignored with -auto)
//	-inbox           list the parked decisions and exit status 3 if any
//	                 remain open
//	-claim id:name   mark an entry as taken by a curator
//	-answer id:opt   answer an entry with one of its option indexes and
//	                 resume the parked update
//	-cancel id       abort a parked update for good
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"

	"youtopia"
	"youtopia/internal/chase"
	"youtopia/internal/debugserver"
	"youtopia/internal/obs"
	"youtopia/internal/parse"
	"youtopia/internal/vfs"
)

func main() {
	auto := flag.Uint64("auto", 0, "answer frontier operations automatically (seed)")
	analyze := flag.Bool("analyze", false, "print mapping analyses")
	dataDir := flag.String("data-dir", "", "durable repository: write-ahead log + checkpoints under this directory (empty = in-memory)")
	dump := flag.Bool("dump", false, "print repository contents at the end")
	skipOps := flag.Bool("skip-ops", false, "do not run the document's operations")
	trace := flag.Bool("trace", false, "print each update's write provenance")
	traceOut := flag.String("trace-out", "", "write per-update lifecycle span timelines (submit/park/answer/resume/commit/ack) to this JSON file")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (empty = disabled)")
	resume := flag.Bool("resume", false, "re-arm a repository that degraded to read-only after an I/O failure")
	faultRate := flag.Float64("fault-rate", 0, "inject EIO write/sync faults into the log with this per-operation probability (testing aid)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for -fault-rate's fault schedule")
	park := flag.Bool("park", false, "park blocked updates in the decision inbox instead of prompting")
	listInbox := flag.Bool("inbox", false, "list the parked decisions")
	claim := flag.String("claim", "", "claim an inbox entry: id:curator-name")
	answer := flag.String("answer", "", "answer an inbox entry: id:option-index")
	cancel := flag.Int64("cancel", 0, "cancel a parked update by inbox entry ID")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: youtopia [flags] repository.ytp")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	if *debugAddr != "" {
		srv, err := debugserver.Serve(*debugAddr, obs.Default)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (/metrics, /healthz, /debug/vars, /debug/pprof)\n", srv.Addr)
	}
	ropts := youtopia.Options{DataDir: *dataDir}
	var ffs *vfs.FaultFS
	if *faultRate > 0 {
		ffs = vfs.NewFaultFS(vfs.OS, *faultSeed)
		ropts.FS = ffs
	}
	repo, doc, err := youtopia.OpenDocumentWithOptions(string(src), ropts)
	if err != nil {
		fail(err)
	}
	defer repo.Close()
	if ffs != nil {
		// Armed once the repository is open: the faults exercise the
		// updates' commits, not recovery and the document's load.
		eio := func() error { return fmt.Errorf("injected fault: %w", syscall.EIO) }
		ffs.Probability(vfs.OpWrite, *faultRate, eio)
		ffs.Probability(vfs.OpSync, *faultRate, eio)
		fmt.Printf("fault injection armed: EIO write/sync faults at %.3g per op (seed %d)\n", *faultRate, *faultSeed)
	}
	debugserver.SetHealthProbe(func() (string, bool) {
		h := repo.Health()
		return h.State.String(), h.State == youtopia.StateHealthy
	})
	if *resume {
		if err := repo.Resume(); err != nil {
			fail(fmt.Errorf("-resume: %w", err))
		}
		fmt.Println("repository resumed: accepting updates again")
	}
	defer func() {
		if h := repo.Health(); h.State != youtopia.StateHealthy {
			fmt.Fprintf(os.Stderr, "youtopia: warning: repository is %s: %s\n", h.State, h.Reason)
		}
	}()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		repo.SetTracer(tracer)
		defer func() {
			if err := tracer.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "youtopia: writing trace:", err)
			}
		}()
	}
	ops := doc.Ops
	fmt.Printf("loaded %d relation(s), %d mapping(s), %d operation(s), %d quer(ies)\n",
		repo.Schema().Len(), repo.Mappings().Len(), len(ops), len(doc.Queries))
	if repo.Durable() {
		if info := repo.Recovery(); info.Fresh {
			fmt.Printf("durable repository at %s (fresh)\n", *dataDir)
		} else {
			fmt.Printf("durable repository at %s: recovered checkpoint@%d + %d commit batch(es), %d redo record(s)\n",
				*dataDir, info.CheckpointBatch, info.BatchesReplayed, info.RecordsReplayed)
		}
	}

	if *analyze {
		fmt.Println()
		fmt.Print(repo.Analyze())
	}
	if vs := repo.Violations(); len(vs) > 0 {
		fmt.Printf("warning: initial data violates %d mapping instance(s); ", len(vs))
		fmt.Println("the first update's chase will not repair pre-existing violations")
	}

	var user youtopia.User
	switch {
	case *auto != 0:
		user = youtopia.RandomUser(*auto)
	case *park:
		user = youtopia.SilentUser()
	default:
		user = &terminalUser{repo: repo, in: bufio.NewReader(os.Stdin)}
	}

	if !*skipOps {
		for i, op := range ops {
			fmt.Printf("\n== update %d: %s\n", i+1, op)
			stats, entries, err := repo.ApplyTraced(op, user)
			var parked *youtopia.ParkedError
			if errors.As(err, &parked) {
				fmt.Printf("   parked as inbox entry %d (answer it with -answer %d:<option>)\n",
					parked.ID, parked.ID)
				continue
			}
			if err != nil {
				fail(fmt.Errorf("update %d: %w", i+1, err))
			}
			fmt.Printf("   done: %d step(s), %d write(s), %d frontier op(s)\n",
				stats.Steps, stats.Writes, stats.FrontierOps)
			if *trace {
				for _, entry := range entries {
					fmt.Printf("   %s\n", entry)
				}
			}
		}
	}

	if *claim != "" {
		id, who, err := splitIDArg(*claim)
		if err != nil {
			fail(fmt.Errorf("-claim: %w", err))
		}
		if err := repo.ClaimInbox(id, who); err != nil {
			fail(err)
		}
		fmt.Printf("inbox entry %d claimed by %s\n", id, who)
	}
	if *answer != "" {
		id, optStr, err := splitIDArg(*answer)
		if err != nil {
			fail(fmt.Errorf("-answer: %w", err))
		}
		opt, err := strconv.Atoi(optStr)
		if err != nil {
			fail(fmt.Errorf("-answer: option index %q: %w", optStr, err))
		}
		resolved, err := repo.AnswerInbox(id, opt)
		if err != nil {
			fail(err)
		}
		if resolved {
			fmt.Printf("inbox entry %d answered; the parked update resumed and committed\n", id)
		} else {
			fmt.Printf("inbox entry %d answered; the update advanced but blocked on a new question (see -inbox)\n", id)
		}
	}
	if *cancel != 0 {
		if err := repo.CancelInbox(*cancel); err != nil {
			fail(err)
		}
		fmt.Printf("inbox entry %d cancelled; its update is aborted\n", *cancel)
	}
	openEntries := 0
	if *listInbox {
		entries := repo.Inbox()
		openEntries = len(entries)
		fmt.Printf("\n== decision inbox (%d open)\n", len(entries))
		for _, e := range entries {
			fmt.Printf("[%d] prio %d, %s", e.ID, e.Priority, e.Status)
			if e.Claimant != "" {
				fmt.Printf(" by %s", e.Claimant)
			}
			fmt.Printf(": %s\n", e.Question)
			for i, opt := range e.Options {
				fmt.Printf("    %2d) %s\n", i, opt)
			}
		}
	}

	for _, q := range doc.Queries {
		fmt.Printf("\n== query %s\n", q)
		certain, err := repo.Certain(q)
		if err != nil {
			fail(err)
		}
		best, err := repo.BestEffort(q)
		if err != nil {
			fail(err)
		}
		fmt.Println("  certain answers:")
		for _, row := range certain {
			fmt.Printf("    %s\n", parse.PrintTuple(row))
		}
		if len(certain) == 0 {
			fmt.Println("    (none)")
		}
		fmt.Println("  best-effort answers:")
		for _, row := range best {
			fmt.Printf("    %s\n", parse.PrintTuple(row))
		}
		if len(best) == 0 {
			fmt.Println("    (none)")
		}
	}

	if *dump {
		fmt.Println("\n== repository contents")
		fmt.Println(repo.Dump())
	}
	if *listInbox && openEntries > 0 {
		repo.Close()
		os.Exit(3)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "youtopia:", err)
	os.Exit(1)
}

// splitIDArg parses an "id:rest" flag value.
func splitIDArg(s string) (int64, string, error) {
	idStr, rest, ok := strings.Cut(s, ":")
	if !ok {
		return 0, "", fmt.Errorf("expected id:value, got %q", s)
	}
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("entry ID %q: %w", idStr, err)
	}
	return id, rest, nil
}

// terminalUser prompts on the terminal for frontier operations,
// showing the provenance (violated mapping and witness) the paper's
// interface design calls for (§2.2).
type terminalUser struct {
	repo *youtopia.Repository
	in   *bufio.Reader
}

// Decide implements chase.User.
func (t *terminalUser) Decide(u *chase.Update, g *chase.FrontierGroup, opts []chase.Decision, _ string) (chase.Decision, bool) {
	snap := t.repo.Store().Snap(u.Number)
	fmt.Printf("\nupdate %d needs help with mapping %s\n", u.Number, g.Viol.TGD.Name)
	fmt.Printf("  mapping: %s\n", g.Viol.TGD)
	fmt.Println("  witness:")
	for _, id := range g.Viol.Witness {
		if tv, ok := snap.GetTuple(id); ok {
			fmt.Printf("    %s\n", parse.PrintTuple(tv))
		}
	}
	if g.Positive {
		fmt.Println("  generated tuples not yet inserted (positive frontier):")
		for i, tv := range g.Tuples {
			fmt.Printf("    [%d] %s\n", i, parse.PrintTuple(tv))
		}
	} else {
		fmt.Println("  deletion candidates (negative frontier):")
		for _, id := range g.Candidates {
			if tv, ok := snap.GetTuple(id); ok {
				fmt.Printf("    #%d %s\n", id, parse.PrintTuple(tv))
			}
		}
	}
	fmt.Println("  options:")
	for i, d := range opts {
		fmt.Printf("    %2d) %s\n", i, t.render(u, g, d))
	}
	for {
		fmt.Print("choose option: ")
		line, err := t.in.ReadString('\n')
		if err != nil {
			return chase.Decision{}, false
		}
		idx, err := strconv.Atoi(strings.TrimSpace(line))
		if err != nil || idx < 0 || idx >= len(opts) {
			fmt.Printf("please enter a number between 0 and %d\n", len(opts)-1)
			continue
		}
		return opts[idx], true
	}
}

func (t *terminalUser) render(u *chase.Update, g *chase.FrontierGroup, d chase.Decision) string {
	snap := t.repo.Store().Snap(u.Number)
	switch d.Kind {
	case chase.DecideExpand:
		return fmt.Sprintf("expand %s (insert it)", parse.PrintTuple(g.Tuples[d.TupleIdx]))
	case chase.DecideUnify:
		target, _ := snap.GetTuple(d.Target)
		return fmt.Sprintf("unify %s with existing %s",
			parse.PrintTuple(g.Tuples[d.TupleIdx]), parse.PrintTuple(target))
	case chase.DecideDelete:
		parts := make([]string, len(d.Subset))
		for i, id := range d.Subset {
			tv, _ := snap.GetTuple(id)
			parts[i] = parse.PrintTuple(tv)
		}
		return "delete " + strings.Join(parts, " and ")
	default:
		return d.String()
	}
}
