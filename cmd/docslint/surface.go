package main

// This file holds the checks that keep the code surface honest: no
// exported function in internal/ lives on without a caller, and every
// repository identifier the design doc cites in backticks exists.
// Both are syntactic (go/ast, no type checker), so they run in the
// same stdlib-only binary as the godoc checks.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// srcFile is one parsed Go file of the tree, test files included.
type srcFile struct {
	path string // relative to the root, slash-separated
	dir  string // relative directory, slash-separated ("." for the root)
	test bool
	file *ast.File
	fset *token.FileSet
}

// parseTree parses every Go file under root, comments included,
// skipping hidden, vendor and testdata directories. A file that does not
// parse is left out and reported as a finding.
func parseTree(root string) (files []*srcFile, findings []string) {
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		relPath := filepath.ToSlash(rel(root, path))
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			findings = append(findings, fmt.Sprintf("%s: parse error: %v", relPath, perr))
			return nil
		}
		files = append(files, &srcFile{
			path: relPath,
			dir:  filepath.ToSlash(filepath.Dir(relPath)),
			test: strings.HasSuffix(path, "_test.go"),
			file: f,
			fset: fset,
		})
		return nil
	})
	return files, findings
}

// modulePath reads the module path from root's go.mod, or "" if none.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// LintDeadExports reports every exported top-level function (methods
// are out of scope: interfaces call them by name) declared in non-test
// Go under internal/ that nothing references. A function counts as
// referenced when non-test Go other than its own declaration names it,
// or when a _test.go file of another package does. A function that only
// its own package's tests use is a test oracle and belongs in a
// _test.go file; one that nothing uses is dead. Roots without go.mod are
// skipped.
func LintDeadExports(root string) []string {
	module := modulePath(root)
	if module == "" {
		return nil
	}
	files, _ := parseTree(root) // LintGoDocs reports parse errors

	type funcDecl struct {
		file *srcFile
		decl *ast.FuncDecl
	}
	var decls []funcDecl
	for _, sf := range files {
		if sf.test || !strings.HasPrefix(sf.dir+"/", "internal/") {
			continue
		}
		for _, d := range sf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				decls = append(decls, funcDecl{file: sf, decl: fd})
			}
		}
	}

	// used[dir][name]: referenced from outside its own declaration.
	used := map[string]map[string]bool{}
	mark := func(dir, name string) {
		if used[dir] == nil {
			used[dir] = map[string]bool{}
		}
		used[dir][name] = true
	}
	for _, sf := range files {
		// Qualified uses from other packages: alias.Name for each import
		// of a package in this module.
		imported := map[string]string{} // local name -> package dir
		for _, imp := range sf.file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(p, module+"/") {
				continue
			}
			dir := strings.TrimPrefix(p, module+"/")
			if dir == sf.dir {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imported[local] = dir
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					if dir, ok := imported[x.Name]; ok {
						mark(dir, sel.Sel.Name)
					}
				}
			}
			return true
		})
		if sf.test {
			continue
		}
		// Unqualified uses inside the declaring package's non-test code,
		// minus the identifiers that name something else: selectors,
		// declarations, struct fields and composite-literal keys.
		for _, d := range sf.file.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			skip := map[*ast.Ident]bool{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					skip[x.Sel] = true
				case *ast.FuncDecl:
					skip[x.Name] = true
				case *ast.Field:
					for _, name := range x.Names {
						skip[name] = true
					}
				case *ast.KeyValueExpr:
					if k, ok := x.Key.(*ast.Ident); ok {
						skip[k] = true
					}
				case *ast.Ident:
					if skip[x] || !x.IsExported() {
						return true
					}
					// A recursive call is not a caller.
					if isFunc && fd.Recv == nil && fd.Name.Name == x.Name {
						return true
					}
					mark(sf.dir, x.Name)
				}
				return true
			})
		}
	}

	var findings []string
	for _, d := range decls {
		name := d.decl.Name.Name
		if used[d.file.dir][name] {
			continue
		}
		p := d.file.fset.Position(d.decl.Pos())
		findings = append(findings, fmt.Sprintf(
			"%s:%d: exported function %s has no caller outside its own package's tests; delete it or move it into a _test.go file",
			d.file.path, p.Line, name))
	}
	return findings
}

// designDoc is the Markdown file whose backticked identifiers must
// resolve.
const designDoc = "DESIGN.md"

// backticked matches an inline code span.
var backticked = regexp.MustCompile("`([^`\n]+)`")

// qualifiedIdent matches a span that begins pkg.Name or
// pkg.Type.Member, optionally followed by a call or other punctuation.
var qualifiedIdent = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(?:$|[^A-Za-z0-9_./])`)

// fileExt lists the suffixes that make pkg.Name a file name (machine.go)
// rather than an identifier.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "txt": true, "svg": true, "sh": true, "mod": true, "yml": true}

// LintDesignIdents checks that every backticked `pkg.Name` or
// `pkg.Type.Member` in DESIGN.md whose pkg is the name of a package in
// this repository names a declaration in that package's non-test code:
// a top-level func, type, var or const, or a method, struct field or
// interface method of a declared type. Spans whose first part is not a
// repository package (the standard library, `m.cong`-style field
// paths) and file names (`machine.go`) are out of scope. Roots without
// DESIGN.md are skipped.
func LintDesignIdents(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, designDoc))
	if err != nil {
		return nil
	}
	// names[pkg] holds "Name" and "Type.Member" for every package clause
	// named pkg (command packages, all "main", are not importable).
	names := map[string]map[string]bool{}
	files, _ := parseTree(root)
	for _, sf := range files {
		pkg := sf.file.Name.Name
		if sf.test || pkg == "main" {
			continue
		}
		if names[pkg] == nil {
			names[pkg] = map[string]bool{}
		}
		collectDecls(sf.file, names[pkg])
	}

	var findings []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			q := qualifiedIdent.FindStringSubmatch(m[1])
			if q == nil {
				continue
			}
			pkg, name, member := q[1], q[2], q[3]
			declared, ok := names[pkg]
			if !ok || (member == "" && fileExt[name]) {
				continue
			}
			ident := name
			if member != "" {
				ident = name + "." + member
			}
			if !declared[ident] {
				findings = append(findings, fmt.Sprintf(
					"%s:%d: `%s.%s` does not resolve to a declaration in package %s", designDoc, i+1, pkg, ident, pkg))
			}
		}
	}
	return findings
}

// collectDecls adds one file's top-level names to into: funcs, types,
// vars and consts as "Name", methods as "Type.Method", and the fields
// and interface methods of declared types as "Type.Field".
func collectDecls(f *ast.File, into map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				into[d.Name.Name] = true
			} else if recv := recvName(d.Recv); recv != "" {
				into[recv+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					into[s.Name.Name] = true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							into[s.Name.Name+"."+n.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						into[n.Name] = true
					}
				}
			}
		}
	}
}

// recvName returns the type name of a method receiver, or "".
func recvName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
