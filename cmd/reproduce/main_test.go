package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// runCmd runs the command in process and returns its exit status,
// stdout and stderr.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSubcommandsMatchFullRun runs the -quick reproduction, checks that
// it writes exactly the files committed under results/, and then checks
// that every subcommand, run at the same seed and the quick counts,
// prints the text and writes the JSON and SVG the full run wrote. The
// two paths share one artefact table; this catches them drifting apart.
func TestSubcommandsMatchFullRun(t *testing.T) {
	const seed = "5"
	out := t.TempDir()
	if code, _, stderr := runCmd("-quick", "-seed", seed, "-out", out); code != 0 {
		t.Fatalf("full run: exit %d: %s", code, stderr)
	}
	if got, want := listing(t, out), listing(t, filepath.Join("..", "..", "results")); !slices.Equal(got, want) {
		t.Fatalf("full run wrote %v, results/ holds %v", got, want)
	}
	file := func(name string) string {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	expect := func(t *testing.T, args []string, want string) {
		t.Helper()
		code, stdout, stderr := runCmd(args...)
		if code != 0 || stderr != "" {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
		}
		if stdout != want {
			t.Errorf("%v printed\n%s\nwant\n%s", args, stdout, want)
		}
	}

	for _, tc := range []struct{ cmd, head string }{
		{"table1", "Table 1 — distribution of mincut values (300 trials per row, seed 5)\n\n"},
		{"table2", "Table 2 — processor utilization, ours vs maximum fault-free subcube (300 trials per row, seed 5)\n\n"},
	} {
		t.Run(tc.cmd, func(t *testing.T) {
			t.Parallel()
			expect(t, []string{tc.cmd, "-trials", "300", "-seed", seed}, tc.head+file(tc.cmd+".txt"))
			expect(t, []string{tc.cmd, "-trials", "300", "-seed", seed, "-json"}, file(tc.cmd+".json"))
		})
	}

	for _, a := range artefacts {
		if a.cmd != "fig7" {
			continue
		}
		t.Run(a.file, func(t *testing.T) {
			t.Parallel()
			n := strconv.Itoa(a.n)
			svg := filepath.Join(t.TempDir(), "panel.svg")
			head := "Figure 7 panel, n=" + n + " (simulated time units; thin = ours with r faults, thick = fault-free baseline)\n\n"
			expect(t, []string{"fig7", "-n", n, "-trials", "2", "-seed", seed, "-svg", svg},
				"wrote "+svg+"\n"+head+file(a.file+".txt"))
			expect(t, []string{"fig7", "-n", n, "-trials", "2", "-seed", seed, "-json"}, file(a.file+".json"))
			// The subcommand keeps its own chart title; the plot is the same.
			data, err := os.ReadFile(svg)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Replace(file(a.file+".svg"), a.title, "Figure 7, n="+n+" (simulated time vs M, log-log)", 1)
			if string(data) != want {
				t.Errorf("fig7 -n %s -svg differs from %s.svg beyond its title", n, a.file)
			}
		})
	}

	// E14 and E15 take fewer placements under -quick than the ablations
	// subcommand runs; every other study has one parameter set.
	t.Run("ablations", func(t *testing.T) {
		t.Parallel()
		var ids []string
		var want strings.Builder
		for _, a := range artefacts {
			if a.cmd != "ablations" || a.id == "e14" || a.id == "e15" {
				continue
			}
			ids = append(ids, strings.ToUpper(a.id))
			want.WriteString(a.title + "\n" + file(a.file+".txt") + "\n")
		}
		expect(t, []string{"ablations", "-seed", seed, "-which", strings.Join(ids, ",")}, want.String())
	})
}

// listing returns the names of the files in dir, sorted.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// TestBadInvocations pins each kind of bad command line to a nonzero
// exit with one line on stderr and nothing on stdout, never a panic.
func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // stderr prefix
	}{
		{[]string{"table3"}, 2, `reproduce: unknown subcommand "table3"`},
		{[]string{"table1", "-trials", "x"}, 2, `reproduce table1: invalid value "x" for flag -trials`},
		{[]string{"fig7", "-bogus"}, 2, "reproduce fig7: flag provided but not defined: -bogus"},
		{[]string{"-quick", "table1"}, 2, `reproduce: unexpected argument "table1"`},
		{[]string{"table1", "-trials", "-5"}, 1, "reproduce table1: experiments: trials -5 is negative"},
		{[]string{"table2", "-trials", "-5"}, 1, "reproduce table2: experiments: trials -5 is negative"},
		{[]string{"table1", "-max-n", "30"}, 1, "reproduce table1: experiments: dimensions 3..30 outside [0,24]"},
		{[]string{"fig7", "-n", "3", "-trials", "-1"}, 1, "reproduce fig7: experiments: Fig7 trials per point -1 is negative"},
		{[]string{"fig7", "-ms", "0"}, 1, "reproduce fig7: integer 0 must be positive"},
	} {
		code, stdout, stderr := runCmd(tc.args...)
		if code != tc.code || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and one line starting %q",
				tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
}
