// Command docslint enforces the repository's documentation contract
// without external tooling:
//
//   - every package has a package comment on at least one file;
//   - every exported top-level declaration (func, type, const, var,
//     method) carries a doc comment that begins with the identifier's
//     name, per standard godoc style;
//   - every relative link in the repository's Markdown files resolves
//     to a file that exists;
//   - every flag declared by cmd/serve is documented in README.md or
//     OBSERVABILITY.md, and every flag listed under OBSERVABILITY.md's
//     "Running the service" heading is actually declared;
//   - every experiment ID (E1, E24, ranges like E3-E6) referenced in
//     the repository docs resolves to a unique EXPERIMENTS.md heading,
//     and every heading is cited from CHANGES.md or DESIGN.md;
//   - every exported top-level function in internal/ has a caller:
//     non-test code, or a test of another package (an oracle only its
//     own package's tests use belongs in a _test.go file);
//   - every backticked `pkg.Name` or `pkg.Type.Member` in DESIGN.md
//     whose pkg is a package of this repository names a declaration in
//     its non-test code.
//
// Usage:
//
//	docslint [-root dir]
//
// It prints one finding per line and exits nonzero if any were found.
// The same checks run inside `go test ./cmd/docslint`, so CI's ordinary
// test leg enforces the contract; the binary exists for editor and
// pre-commit use.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()
	findings := Lint(*root)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// Lint runs every check against the tree rooted at root and returns the
// findings, sorted, one human-readable line each.
func Lint(root string) []string {
	var findings []string
	findings = append(findings, LintGoDocs(root)...)
	findings = append(findings, LintMarkdownLinks(root)...)
	findings = append(findings, LintServeFlags(root)...)
	findings = append(findings, LintExperimentIDs(root)...)
	findings = append(findings, LintDeadExports(root)...)
	findings = append(findings, LintDesignIdents(root)...)
	sort.Strings(findings)
	return findings
}

// LintGoDocs checks package comments and exported-symbol doc comments
// in every non-test Go file under root. Vendored and hidden directories
// are skipped; test files are exempt (their exported helpers are
// package-local test plumbing, not API).
func LintGoDocs(root string) []string {
	files, findings := parseTree(root)
	pkgs := map[string][]*srcFile{} // directory -> non-test files
	for _, sf := range files {
		if !sf.test {
			pkgs[sf.dir] = append(pkgs[sf.dir], sf)
		}
	}
	for dir, files := range pkgs {
		hasPkgDoc := false
		for _, sf := range files {
			if sf.file.Doc != nil && len(strings.TrimSpace(sf.file.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, files[0].file.Name.Name))
		}
		for _, sf := range files {
			findings = append(findings, lintFileDecls(sf)...)
		}
	}
	return findings
}

// lintFileDecls checks every exported top-level declaration in one file.
func lintFileDecls(sf *srcFile) []string {
	var findings []string
	report := func(pos token.Pos, name, what string) {
		p := sf.fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s %s", sf.path, p.Line, what, name, "has no doc comment starting with its name"))
	}
	for _, decl := range sf.file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			// Methods on unexported receivers are not reachable API.
			if d.Recv != nil && !ast.IsExported(recvName(d.Recv)) {
				continue
			}
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			if !docStartsWith(d.Doc, d.Name.Name) {
				report(d.Pos(), d.Name.Name, what)
			}
		case *ast.GenDecl:
			findings = append(findings, lintGenDecl(sf, d)...)
		}
	}
	return findings
}

// lintGenDecl checks one const/var/type block. A doc comment on the
// block covers its members (the standard grouped-declaration idiom), so
// per-spec comments are only demanded when the block itself is bare.
func lintGenDecl(sf *srcFile, d *ast.GenDecl) []string {
	if d.Tok == token.IMPORT {
		return nil
	}
	blockDoc := d.Doc != nil && len(strings.TrimSpace(d.Doc.Text())) > 0
	var findings []string
	report := func(pos token.Pos, name, what string) {
		p := sf.fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", sf.path, p.Line, what, name))
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			// For a single-type declaration godoc style wants the name in
			// the comment; grouped types just need some comment.
			if len(d.Specs) == 1 {
				if !docStartsWith(d.Doc, s.Name.Name) {
					report(s.Pos(), s.Name.Name, "type")
				}
			} else if !blockDoc && (s.Doc == nil || len(strings.TrimSpace(s.Doc.Text())) == 0) {
				report(s.Pos(), s.Name.Name, "type")
			}
		case *ast.ValueSpec:
			if blockDoc || (s.Doc != nil && len(strings.TrimSpace(s.Doc.Text())) > 0) ||
				(s.Comment != nil && len(strings.TrimSpace(s.Comment.Text())) > 0) {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					what := "const"
					if d.Tok == token.VAR {
						what = "var"
					}
					report(n.Pos(), n.Name, what)
				}
			}
		}
	}
	return findings
}

// docStartsWith reports whether the comment group exists and its first
// word is name (allowing the "A/An/The Name ..." article prefix that
// godoc also accepts).
func docStartsWith(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	text := strings.TrimSpace(doc.Text())
	if text == "" {
		return false
	}
	// Deprecated markers and directive-style comments count as documented.
	if strings.HasPrefix(text, "Deprecated:") {
		return true
	}
	fields := strings.Fields(text)
	if fields[0] == name {
		return true
	}
	if len(fields) >= 2 {
		switch fields[0] {
		case "A", "An", "The":
			if fields[1] == name {
				return true
			}
		}
	}
	return false
}

// mdLink matches inline Markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// LintMarkdownLinks checks that every relative link in every Markdown
// file under root points at a file or directory that exists. External
// (scheme-prefixed) links and pure in-page anchors are not checked —
// no network access, and anchor slugs are renderer-specific.
func LintMarkdownLinks(root string) []string {
	var findings []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(strings.ToLower(path), ".md") {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
					strings.HasPrefix(target, "mailto:") {
					continue
				}
				// Trim an in-page anchor from a relative file link.
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, serr := os.Stat(resolved); serr != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: broken relative link %q", rel(root, path), i+1, m[1]))
				}
			}
		}
		return nil
	})
	return findings
}

// rel shortens path for reporting, falling back to the input.
func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}
