// Command doccheck is the CI docs gate: it fails when any exported
// identifier in the given directories lacks a doc comment — the
// behaviour of revive's "exported" rule, implemented on the standard
// library so the gate needs no external dependency.
//
//	go run ./tools/doccheck ./raa ./raa/experiments ./internal/runtime
//
// For every non-test Go file it requires a doc comment on each exported
// top-level function, method (on an exported receiver type), type, and
// const/var name, and a doc or line comment on each exported field of an
// exported struct type; a group doc comment on a const/var block covers
// the whole block, and a field's comment covers the fields on the lines
// directly below it. Offenders are listed as file:line: name and the
// command exits non-zero.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck dir [dir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range dirs {
		missing, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
		}
		bad += len(missing)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) without a doc comment\n", bad)
		os.Exit(1)
	}
}

// checkDir parses every non-test Go file in dir (no recursion — pass each
// package directory explicitly) and returns one "file:line: name" entry
// per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		missing = append(missing, checkFile(fset, f)...)
	}
	return missing, nil
}

// checkFile walks one file's top-level declarations.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var missing []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedRecv(d) {
				continue
			}
			if d.Doc.Text() == "" {
				report(d.Pos(), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc.Text() == "" && s.Doc.Text() == "" {
						report(s.Pos(), s.Name.Name)
					}
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					// A field's comment covers the fields on the lines
					// directly below it, as a block's covers its names.
					covered, prevEnd := false, 0
					for _, fld := range st.Fields.List {
						line := fset.Position(fld.Pos()).Line
						covered = fld.Doc.Text() != "" || fld.Comment.Text() != "" || covered && line == prevEnd+1
						prevEnd = fset.Position(fld.End()).Line
						if covered {
							continue
						}
						for _, n := range fld.Names {
							if n.IsExported() {
								report(n.Pos(), s.Name.Name+"."+n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					// A doc comment on the const/var block covers every
					// name in it.
					if d.Doc.Text() != "" || s.Doc.Text() != "" || s.Comment.Text() != "" {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), n.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// exportedRecv reports whether a method's receiver type is exported (a
// plain function has no receiver and always qualifies). Methods on
// unexported types are not part of the package's documented surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true // be conservative: unknown shapes stay checked
		}
	}
}
