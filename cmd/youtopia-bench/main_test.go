package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
