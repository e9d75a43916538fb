package main

// This file holds the documentation-contract checks that tie the
// Markdown docs to the code and to each other: the serve flag surface,
// the command paths and the experiment-ID namespace. All three are
// cross-file invariants that godoc-style linting cannot see, and all
// have drifted in the past — flags added to cmd/serve without operator
// docs, usage lines for deleted commands, experiment IDs cited in prose
// with no section behind them.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// flagToken matches a command-line flag mention: a dash-led name
// preceded by start-of-line, whitespace, a backtick, or an opening
// bracket/paren (usage-synopsis style). The leading letter requirement
// keeps negative numbers like -1 out.
var flagToken = regexp.MustCompile("(?:^|[\\s`\\[(])-([a-zA-Z][a-zA-Z0-9-]*)")

// flagDocFiles are the Markdown files where a serve flag counts as
// documented.
var flagDocFiles = []string{"README.md", "OBSERVABILITY.md"}

// serveFlagSection is the OBSERVABILITY.md heading whose body is the
// canonical serve flag list; every flag mentioned there must exist.
const serveFlagSection = "## Running the service"

// LintServeFlags keeps cmd/serve's flag surface and the operator docs
// in sync, in both directions:
//
//   - every flag declared in cmd/serve/main.go must be mentioned (as
//     `-name`) somewhere in README.md or OBSERVABILITY.md;
//   - every flag mentioned under OBSERVABILITY.md's "Running the
//     service" heading must be declared in cmd/serve/main.go.
//
// The reverse direction is scoped to that one section because README
// also documents flags of other commands (cmd/ftsort, cmd/benchjson,
// go tool pprof). Roots without cmd/serve/main.go are skipped — the
// check is specific to this repository's layout.
func LintServeFlags(root string) []string {
	mainPath := filepath.Join(root, "cmd", "serve", "main.go")
	if _, err := os.Stat(mainPath); err != nil {
		return nil
	}
	declared, err := declaredFlags(mainPath)
	if err != nil {
		return []string{fmt.Sprintf("cmd/serve/main.go: %v", err)}
	}

	var findings []string
	documented := map[string]bool{}
	for _, name := range flagDocFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			findings = append(findings, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		for _, m := range flagToken.FindAllStringSubmatch(string(data), -1) {
			documented[m[1]] = true
		}
	}
	for _, f := range sortedKeys(declared) {
		if !documented[f] {
			findings = append(findings, fmt.Sprintf(
				"cmd/serve/main.go: flag -%s is not documented in README.md or OBSERVABILITY.md", f))
		}
	}

	obs, err := os.ReadFile(filepath.Join(root, "OBSERVABILITY.md"))
	if err != nil {
		return findings
	}
	inSection := false
	for i, line := range strings.Split(string(obs), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "## ") {
			inSection = trimmed == serveFlagSection
			continue
		}
		if !inSection {
			continue
		}
		for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
			if !declared[m[1]] {
				findings = append(findings, fmt.Sprintf(
					"OBSERVABILITY.md:%d: documented flag -%s is not declared in cmd/serve/main.go", i+1, m[1]))
			}
		}
	}
	return findings
}

// declaredFlags parses one main.go and collects the names registered
// through the flag package: flag.String("name", ...) and friends, plus
// the *Var/Func forms where the name is the second argument.
func declaredFlags(path string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		argIdx := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") || sel.Sel.Name == "Func" {
			argIdx = 1
		}
		if argIdx >= len(call.Args) {
			return true
		}
		lit, ok := call.Args[argIdx].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
			names[name] = true
		}
		return true
	})
	return names, nil
}

// cmdPath matches a command path as the docs cite it: `cmd/name`, or
// `./cmd/name` in a `go run` line. A path char before "cmd" (as in
// `bench/cmd/x` or a URL) means it is some other tree's directory.
var cmdPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./)?cmd/([A-Za-z0-9_-]+)`)

// cmdDocFiles are the Markdown files that describe the current tree.
// CHANGES.md and ROADMAP.md are history and plan: they name commands
// that are gone or not yet written.
var cmdDocFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md", "bench/README.md"}

// LintCommandPaths checks that every cmd/<name> the docs cite is a
// directory under root's cmd/, so a deleted or renamed command cannot
// linger in a usage line. Missing doc files are skipped.
func LintCommandPaths(root string) []string {
	var findings []string
	for _, name := range cmdDocFiles {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(name)))
		if err != nil {
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range cmdPath.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil || !fi.IsDir() {
					findings = append(findings, fmt.Sprintf("%s:%d: cmd/%s is not a command directory", name, i+1, m[1]))
				}
			}
		}
	}
	return findings
}

// expID matches an experiment ID or ID range: E7, E3-E6, E8–E16 (both
// hyphen and en-dash, the second E optional as in "E8–15" style).
var expID = regexp.MustCompile(`\bE(\d+)(?:[-–]E?(\d+))?\b`)

// expRefFiles are the repository docs whose experiment-ID references
// must resolve; the coverage direction additionally requires every
// EXPERIMENTS.md heading ID to be cited from CHANGES.md or DESIGN.md.
var expRefFiles = []string{"README.md", "DESIGN.md", "OBSERVABILITY.md", "CHANGES.md", "ROADMAP.md"}

// LintExperimentIDs keeps the experiment namespace coherent:
//
//   - every EXPERIMENTS.md heading ID (ranges like "E3-E6" expand) is
//     declared exactly once;
//   - every E<n> reference in the repository docs — README, DESIGN,
//     OBSERVABILITY, CHANGES, ROADMAP, and EXPERIMENTS.md body text —
//     resolves to a heading;
//   - every heading ID is cited from CHANGES.md or DESIGN.md, so each
//     experiment is anchored to the change that introduced it or to
//     the design doc's experiment index.
//
// Roots without EXPERIMENTS.md are skipped.
func LintExperimentIDs(root string) []string {
	expPath := filepath.Join(root, "EXPERIMENTS.md")
	data, err := os.ReadFile(expPath)
	if err != nil {
		return nil
	}

	var findings []string
	headings := map[int]int{} // experiment number -> first heading line
	var bodyRefs []expRef
	for i, line := range strings.Split(string(data), "\n") {
		ids := experimentIDs(line)
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			for _, id := range ids {
				if first, dup := headings[id]; dup {
					findings = append(findings, fmt.Sprintf(
						"EXPERIMENTS.md:%d: experiment E%d already declared by the heading on line %d", i+1, id, first))
					continue
				}
				headings[id] = i + 1
			}
			continue
		}
		for _, id := range ids {
			bodyRefs = append(bodyRefs, expRef{file: "EXPERIMENTS.md", line: i + 1, id: id})
		}
	}

	refs := bodyRefs
	citedFromIndex := map[int]bool{} // cited in CHANGES.md or DESIGN.md
	for _, name := range expRefFiles {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			continue
		}
		index := name == "CHANGES.md" || name == "DESIGN.md"
		for i, line := range strings.Split(string(data), "\n") {
			for _, id := range experimentIDs(line) {
				refs = append(refs, expRef{file: name, line: i + 1, id: id})
				if index {
					citedFromIndex[id] = true
				}
			}
		}
	}

	for _, r := range refs {
		if _, ok := headings[r.id]; !ok {
			findings = append(findings, fmt.Sprintf(
				"%s:%d: experiment E%d is referenced but has no EXPERIMENTS.md heading", r.file, r.line, r.id))
		}
	}
	for _, id := range sortedInts(headings) {
		if !citedFromIndex[id] {
			findings = append(findings, fmt.Sprintf(
				"EXPERIMENTS.md:%d: experiment E%d is not referenced from CHANGES.md or DESIGN.md", headings[id], id))
		}
	}
	return findings
}

// expRef is one experiment-ID mention for error reporting.
type expRef struct {
	file string
	line int
	id   int
}

// experimentIDs extracts the experiment numbers mentioned on one line,
// expanding ranges; a malformed range (end below start, or absurdly
// wide) is treated as two independent IDs.
func experimentIDs(line string) []int {
	var ids []int
	for _, m := range expID.FindAllStringSubmatch(line, -1) {
		lo, _ := strconv.Atoi(m[1])
		if m[2] == "" {
			ids = append(ids, lo)
			continue
		}
		hi, _ := strconv.Atoi(m[2])
		if hi < lo || hi-lo > 100 {
			ids = append(ids, lo, hi)
			continue
		}
		for id := lo; id <= hi; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

// sortedKeys returns a map's string keys in sorted order.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedInts returns a map's int keys in sorted order.
func sortedInts(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
