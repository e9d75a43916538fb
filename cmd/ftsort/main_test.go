package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this binary
// with FTSORT_RUN_MAIN=1, so a test can drive the real flag handling
// without building anything.
func TestMain(m *testing.M) {
	if os.Getenv("FTSORT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ftsort runs the command with args and returns its stdout.
func ftsort(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FTSORT_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ftsort %v: %v", args, err)
	}
	return string(out)
}

// summary keeps the lines of an ftsort run that report the run itself:
// the stats line and the trace summary.
func summary(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sorted ") || strings.HasPrefix(line, "trace: ") {
			keep = append(keep, line)
		}
	}
	return keep
}

// TestStepsKeepsSettings pins that -steps only adds the Figure 6
// walkthrough to the run the other flags describe: with the
// half-exchange protocol, distribution accounting or a trace, the stats
// line and the trace summary are the same with and without -steps.
func TestStepsKeepsSettings(t *testing.T) {
	base := []string{"-n", "3", "-faults", "5", "-m", "64", "-q"}
	full := summary(ftsort(t, base...))
	for _, extra := range [][]string{{"-proto", "half"}, {"-distribute"}, {"-trace", "5"}} {
		args := append(append([]string{}, base...), extra...)
		plain := summary(ftsort(t, args...))
		steps := ftsort(t, append(args, "-steps")...)
		if !strings.Contains(steps, "after-step-") {
			t.Errorf("%v -steps printed no intermediate state", extra)
		}
		if got := summary(steps); strings.Join(got, "\n") != strings.Join(plain, "\n") {
			t.Errorf("%v: -steps reports\n%s\nwithout -steps\n%s", extra, strings.Join(got, "\n"), strings.Join(plain, "\n"))
		}
		if extra[0] != "-trace" && plain[0] == full[0] {
			t.Errorf("%v reports the same stats as the default run: %s", extra, plain[0])
		}
	}
}
