package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryDocs runs the full lint against the repository root, so
// the ordinary `go test ./...` leg enforces the documentation contract:
// package comments, exported-symbol godoc, and working Markdown links.
func TestRepositoryDocs(t *testing.T) {
	findings := Lint(repoRoot(t))
	for _, f := range findings {
		t.Error(f)
	}
}

// TestLintGoDocsCatches proves the Go checks actually fire, using a
// synthetic package with every class of violation.
func TestLintGoDocsCatches(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

func Exposed() {}

// Wrong name leads this comment.
type Thing struct{}

const Loose = 1

var Stray int
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := LintGoDocs(dir)
	wants := []string{
		"package bad has no package comment",
		"exported function Exposed",
		"exported type Thing",
		"exported const Loose",
		"exported var Stray",
	}
	for _, w := range wants {
		if !anyContains(findings, w) {
			t.Errorf("missing finding %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
}

// TestLintGoDocsAccepts proves the accepted godoc idioms stay clean:
// name-led comments, article prefixes, grouped blocks, trailing
// line comments on const specs, unexported receivers, test files.
func TestLintGoDocsAccepts(t *testing.T) {
	dir := t.TempDir()
	src := `// Package good is documented.
package good

// Exposed does a thing.
func Exposed() {}

// A Widget holds state.
type Widget struct{}

// Tuning constants for the frobnicator.
const (
	Low  = 1
	High = 2
)

const (
	Alpha = iota // Alpha is first.
	Beta         // Beta is second.
)

type hidden struct{}

func (h hidden) Exported() {} // method on unexported type: exempt
`
	if err := os.WriteFile(filepath.Join(dir, "good.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tsrc := `package good

func HelperForTests() {}
`
	if err := os.WriteFile(filepath.Join(dir, "good_test.go"), []byte(tsrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if findings := LintGoDocs(dir); len(findings) != 0 {
		t.Errorf("clean package produced findings: %v", findings)
	}
}

// TestLintMarkdownLinks proves relative-link checking: existing targets
// pass (with or without anchors), missing ones are reported, and
// external links are ignored.
func TestLintMarkdownLinks(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "REAL.md"), []byte("# real\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `# doc
[ok](REAL.md) and [anchored](REAL.md#real) and [ext](https://example.com/x.md)
[broken](MISSING.md)
`
	if err := os.WriteFile(filepath.Join(dir, "DOC.md"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := LintMarkdownLinks(dir)
	if len(findings) != 1 || !strings.Contains(findings[0], "MISSING.md") {
		t.Errorf("want exactly one MISSING.md finding, got %v", findings)
	}
	if !strings.Contains(findings[0], "DOC.md:3") {
		t.Errorf("finding should carry file:line, got %v", findings)
	}
}

// TestLintServeFlags proves both directions of the flag contract with
// a synthetic tree: a declared-but-undocumented flag and a
// documented-but-undeclared flag each produce exactly one finding, and
// documentation in either README.md or OBSERVABILITY.md satisfies the
// declared side.
func TestLintServeFlags(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "cmd", "serve"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package main

import "flag"

func main() {
	flag.String("addr", ":8080", "listen address")
	flag.Bool("undoc", false, "nobody wrote this one up")
	flag.Int("workers", 0, "worker count")
	flag.Parse()
}
`
	if err := os.WriteFile(filepath.Join(dir, "cmd", "serve", "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	readme := "# readme\n\nRun with `-workers 4` for parallelism.\n"
	obs := `# obs

## Running the service

` + "```\ngo run ./cmd/serve -addr :8080 [-workers 8]\n```\n" + `
- ` + "`-addr`" + ` — listen address.
- ` + "`-ghost`" + ` — this flag was deleted from main.go.

## Another section

Mentions of ` + "`-unrelated`" + ` outside the flag section are fine.
`
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte(readme), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "OBSERVABILITY.md"), []byte(obs), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := LintServeFlags(dir)
	wants := []string{
		"flag -undoc is not documented",
		"flag -ghost is not declared",
	}
	for _, w := range wants {
		if !anyContains(findings, w) {
			t.Errorf("missing finding %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
	// A root without cmd/serve is out of scope, not a failure.
	if extra := LintServeFlags(t.TempDir()); len(extra) != 0 {
		t.Errorf("serve-less root produced findings: %v", extra)
	}
}

// TestLintExperimentIDs proves the experiment-namespace checks with a
// synthetic doc set: a duplicate heading ID, a dangling reference, and
// an uncited heading are each reported; range syntax (hyphen and
// en-dash, with or without the second E) expands on both sides.
func TestLintExperimentIDs(t *testing.T) {
	dir := t.TempDir()
	experiments := `# EXPERIMENTS

## Table 1 (E1)

## Sweep (E2-E4)

## Duplicate (E2)

## Orphan (E6)

Body text citing E3 is fine; body text citing E9 dangles.
`
	changes := "PR 1: ships E1 and the E2–4 sweep.\n"
	design := "The index covers E1 and nothing else.\n"
	for name, data := range map[string]string{
		"EXPERIMENTS.md": experiments,
		"CHANGES.md":     changes,
		"DESIGN.md":      design,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings := LintExperimentIDs(dir)
	wants := []string{
		"experiment E2 already declared",
		"experiment E9 is referenced but has no EXPERIMENTS.md heading",
		"experiment E6 is not referenced from CHANGES.md or DESIGN.md",
	}
	for _, w := range wants {
		if !anyContains(findings, w) {
			t.Errorf("missing finding %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
	if extra := LintExperimentIDs(t.TempDir()); len(extra) != 0 {
		t.Errorf("EXPERIMENTS-less root produced findings: %v", extra)
	}
}

// anyContains reports whether any string in list contains sub.
func anyContains(list []string, sub string) bool {
	for _, s := range list {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// repoRoot locates the repository root from the test's working
// directory (cmd/docslint), verified by the presence of go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}

// writeTree writes files (slash-separated relative path -> contents)
// under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLintDeadExports proves the dead-surface check with a synthetic
// module: an internal function with no caller, one only its own tests
// call, and one that only calls itself are reported; functions called
// from non-test code, from another package's test, or as a value in
// their own package are not; methods are out of scope.
func TestLintDeadExports(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func Used() int { return Helper() }

func Helper() int { return 1 }

func Registered() {}

var table = []func(){Registered}

func CalledByOtherTest() {}

func Dead() {}

func OnlyOwnTest() {}

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type T struct{}

func (T) UncalledMethod() {}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) { OnlyOwnTest() }
`,
		"cmd/tool/main.go": `package main

import l "example.com/m/internal/lib"

func main() { l.Used() }
`,
		"other/other_test.go": `package other

import (
	"testing"

	"example.com/m/internal/lib"
)

func TestCross(t *testing.T) { lib.CalledByOtherTest() }
`,
	})
	findings := LintDeadExports(dir)
	wants := []string{
		"internal/lib/lib.go:13: exported function Dead has no caller",
		"internal/lib/lib.go:15: exported function OnlyOwnTest has no caller",
		"internal/lib/lib.go:17: exported function Recursive has no caller",
	}
	for _, w := range wants {
		if !anyContains(findings, w) {
			t.Errorf("missing finding %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
	if extra := LintDeadExports(t.TempDir()); len(extra) != 0 {
		t.Errorf("module-less root produced findings: %v", extra)
	}
}

// TestLintDesignIdents proves the design-doc identifier check: repository
// names resolve as functions, types, methods and fields; a stale name is
// reported; standard-library packages, non-package prefixes and file
// names are left alone.
func TestLintDesignIdents(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"internal/lib/lib.go": `package lib

type Ctx struct{ Chunk []int }

func (c *Ctx) Merge() {}

func New() *Ctx { return nil }

const Limit = 3
`,
		"internal/lib/lib_test.go": `package lib

func TestOnly() {}
`,
		"DESIGN.md": "Uses `lib.New`, `lib.Ctx`, `lib.Ctx.Merge()`, `lib.Ctx.Chunk`, `lib.Limit`.\n" +
			"Stdlib `sync.Pool` and `errors.Is`, a field path `c.Chunk`, a file `lib.go`.\n" +
			"Stale: `lib.Gone` and `lib.Ctx.Vanished`, and `lib.TestOnly` lives in a test.\n",
	})
	findings := LintDesignIdents(dir)
	wants := []string{
		"DESIGN.md:3: `lib.Gone` does not resolve",
		"DESIGN.md:3: `lib.Ctx.Vanished` does not resolve",
		"DESIGN.md:3: `lib.TestOnly` does not resolve",
	}
	for _, w := range wants {
		if !anyContains(findings, w) {
			t.Errorf("missing finding %q in %v", w, findings)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("got %d findings, want %d: %v", len(findings), len(wants), findings)
	}
}
