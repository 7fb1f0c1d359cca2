package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// faultDoc is a small durable document: one consistent initial tuple
// and two inserts whose chases write and commit.
const faultDoc = `
relation C(city)
relation S(code, location, city_served)
mapping sigma1: C(c) -> exists a, l: S(a, l, c)
tuple S("SYR", "Syracuse", "Syracuse")
tuple C("Syracuse")
insert C("Ithaca")
insert C("Albany")
`

// TestFaultRateArmsAfterOpen runs the command in a subprocess (this
// test binary, re-entered through main) on a fresh data directory with
// -fault-rate 0.3 -fault-seed 2, the seed whose first write fault hit
// the log's creation while faults were armed before the open. Armed
// after it, the faults reach only the updates: the document loads, and
// a failure, if any, is an update's.
func TestFaultRateArmsAfterOpen(t *testing.T) {
	if args := os.Getenv("YOUTOPIA_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"youtopia"}, strings.Split(args, " ")...)
		main()
		return
	}
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.ytp")
	if err := os.WriteFile(doc, []byte(faultDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-data-dir", filepath.Join(dir, "data"), "-fault-rate", "0.3", "-fault-seed", "2", "-auto", "1", doc}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFaultRateArmsAfterOpen$")
	cmd.Env = append(os.Environ(), "YOUTOPIA_MAIN_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	if !strings.Contains(string(out), "loaded 2 relation(s), 1 mapping(s), 2 operation(s)") {
		t.Fatalf("the repository did not open under armed faults: %v\n%s", err, out)
	}
	var exit *exec.ExitError
	if err != nil && (!errors.As(err, &exit) || !strings.Contains(string(out), "youtopia: update ")) {
		t.Fatalf("a failure that is not an update's: %v\n%s", err, out)
	}
}
