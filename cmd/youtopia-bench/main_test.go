package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"youtopia/internal/experiments"
)

// TestRejectsSerialInboxWorkers runs the command in a subprocess (this
// test binary, re-entered through main) with -inbox-workers 0: the
// serial reference cannot park updates, so the flag is rejected before
// any study starts, with exit status 1 and a youtopia-bench: message.
func TestRejectsSerialInboxWorkers(t *testing.T) {
	if os.Getenv("YOUTOPIA_BENCH_MAIN") == "1" {
		os.Args = []string{"youtopia-bench", "-figure", "inbox", "-preset", "quick", "-inbox-workers", "0"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsSerialInboxWorkers$")
	cmd.Env = append(os.Environ(), "YOUTOPIA_BENCH_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "youtopia-bench: bad -inbox-workers 0") {
		t.Fatalf("output does not name the flag:\n%s", out)
	}
}

// TestBaselineGatesCountsExactly runs the inbox study through the
// command twice: against the JSON its first run wrote it passes, and
// against a copy with one more inbox-mode user poll it exits 1, naming
// the point and the count.
func TestBaselineGatesCountsExactly(t *testing.T) {
	if args := os.Getenv("YOUTOPIA_BENCH_ARGS"); args != "" {
		os.Args = append([]string{"youtopia-bench"}, strings.Split(args, " ")...)
		main()
		return
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBaselineGatesCountsExactly$")
		cmd.Env = append(os.Environ(), "YOUTOPIA_BENCH_ARGS="+strings.Join(args, " "))
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	dir := t.TempDir()
	study := []string{"-figure", "inbox", "-preset", "quick", "-runs", "1", "-updates", "20"}
	first := filepath.Join(dir, "first.json")
	if out, err := run(append(study, "-json", first)...); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := run(append(study, "-baseline", first)...); err != nil {
		t.Fatalf("the study fails against its own output: %v\n%s", err, out)
	}
	points, err := experiments.LoadStudy[experiments.InboxPoint](first)
	if err != nil {
		t.Fatal(err)
	}
	points[1].UserPolls++
	seeded := filepath.Join(dir, "seeded.json")
	if err := experiments.WriteStudy(seeded, points); err != nil {
		t.Fatal(err)
	}
	out, err := run(append(study, "-baseline", seeded)...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v; output:\n%s", err, out)
	}
	if !strings.Contains(out, "inbox,workers=4: UserPolls ") {
		t.Fatalf("the failure does not name the point and the count:\n%s", out)
	}
}
