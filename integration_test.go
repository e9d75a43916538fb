package hypersort

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd into a temp dir and returns the binary path.
// Integration tests exercise the CLIs exactly as a user would, catching
// flag plumbing and output regressions the unit tests cannot see.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI tools")
	}
	dir := t.TempDir()

	t.Run("ftsort", func(t *testing.T) {
		bin := buildTool(t, dir, "ftsort")
		out := run(t, bin, "-n", "5", "-faults", "3,5,16,24", "-m", "470", "-estimate")
		for _, want := range []string{"mincut=3", "chosen=[0 1 3]", "dangling: [18 25 26 27]", "sorted 470 keys", "closed-form"} {
			if !strings.Contains(out, want) {
				t.Errorf("ftsort output missing %q:\n%s", want, out)
			}
		}
		// The Figure 6-style walkthrough.
		out = run(t, bin, "-n", "3", "-faults", "1", "-m", "12", "-steps", "-q")
		if !strings.Contains(out, "after-step-3") {
			t.Errorf("-steps output missing walkthrough:\n%s", out)
		}
		// Half-exchange protocol and total fault model accepted.
		out = run(t, bin, "-n", "4", "-faults", "2", "-m", "64", "-proto", "half", "-model", "total", "-q")
		if !strings.Contains(out, "sorted 64 keys") {
			t.Errorf("protocol/model run failed:\n%s", out)
		}
	})

	t.Run("partition", func(t *testing.T) {
		bin := buildTool(t, dir, "partition")
		out := run(t, bin, "-n", "5", "-faults", "3,5,16,24")
		for _, want := range []string{"mincut=3", "(1, 2, 3)  cost=4", "* (0, 1, 3)", "dead processor 18 (dangling)", "baseline"} {
			if !strings.Contains(out, want) {
				t.Errorf("partition output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("diagnose", func(t *testing.T) {
		bin := buildTool(t, dir, "diagnose")
		out := run(t, bin, "-n", "5", "-faults", "3,17")
		if !strings.Contains(out, "diagnosis exact") {
			t.Errorf("diagnose output:\n%s", out)
		}
	})

	t.Run("table1-json", func(t *testing.T) {
		bin := buildTool(t, dir, "reproduce")
		out := run(t, bin, "table1", "-trials", "50", "-max-n", "4", "-json")
		var rows []map[string]any
		if err := json.Unmarshal([]byte(out), &rows); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, out)
		}
		if len(rows) != 3 { // n=3 r=2; n=4 r=2,3
			t.Errorf("got %d JSON rows", len(rows))
		}
	})

	t.Run("table2", func(t *testing.T) {
		bin := buildTool(t, dir, "reproduce")
		out := run(t, bin, "table2", "-trials", "50", "-max-n", "4")
		if !strings.Contains(out, "baseline worst") {
			t.Errorf("table2 output:\n%s", out)
		}
	})

	t.Run("fig7-svg-check", func(t *testing.T) {
		bin := buildTool(t, dir, "reproduce")
		svgPath := filepath.Join(dir, "panel.svg")
		out := run(t, bin, "fig7", "-n", "4", "-ms", "8000,64000", "-trials", "2", "-check", "-svg", svgPath)
		if !strings.Contains(out, "shape check: all of the paper's orderings hold") {
			t.Errorf("fig7 shape check failed:\n%s", out)
		}
		svg, err := os.ReadFile(svgPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(svg), "<svg") {
			t.Error("svg file malformed")
		}
	})

	t.Run("ablations", func(t *testing.T) {
		bin := buildTool(t, dir, "reproduce")
		out := run(t, bin, "ablations", "-which", "e8")
		if !strings.Contains(out, "E8") || !strings.Contains(out, "ratio") {
			t.Errorf("ablations output:\n%s", out)
		}
	})

	t.Run("reproduce-quick", func(t *testing.T) {
		bin := buildTool(t, dir, "reproduce")
		outDir := filepath.Join(dir, "results")
		out := run(t, bin, "-quick", "-out", outDir)
		if !strings.Contains(out, "shape check PASSED") {
			t.Errorf("reproduce output:\n%s", out)
		}
		for _, f := range []string{"table1.txt", "table2.json", "fig7a.svg", "e15_availability.txt", "SUMMARY.md"} {
			if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
				t.Errorf("missing artifact %s: %v", f, err)
			}
		}
	})
}

func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI tools")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "ftsort")
	// Bad fault address must exit non-zero with a message.
	cmd := exec.Command(bin, "-n", "4", "-faults", "banana")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bad fault list accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "bad processor address") {
		t.Errorf("unhelpful error: %s", out)
	}
}
