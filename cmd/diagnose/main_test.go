package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with DIAGNOSE_RUN_MAIN=1, so a test can check exit status and stderr
// without building anything.
func TestMain(m *testing.M) {
	if os.Getenv("DIAGNOSE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadDimension pins a dimension the cube cannot build to a one-line
// error and exit status 1, not a panic.
func TestBadDimension(t *testing.T) {
	for _, n := range []string{"31", "-1"} {
		cmd := exec.Command(os.Args[0], "-n", n, "-faults", "1")
		cmd.Env = append(os.Environ(), "DIAGNOSE_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-n %s: %v, want exit status 1", n, err)
		}
		want := "diagnose: dimension " + n + " outside [0,24]\n"
		if stderr.String() != want || len(out) != 0 {
			t.Errorf("-n %s: stdout %q, stderr %q, want only %q", n, out, stderr.String(), want)
		}
	}
}
