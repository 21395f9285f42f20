package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The reference pass reads a Markdown document and resolves the code names
// it cites, so a document cannot go on naming what was deleted:
//
//   - every backticked Test…, Benchmark… or Fuzz… name must be a function in
//     one of the module's _test.go files;
//   - every backticked pkg.Ident, pkg.Type.Member or Type.Member whose first
//     part names a package or a module type must resolve, in a module
//     package of that name or, failing that, in the standard library;
//   - every backticked span that is exactly one lower-camelCase identifier
//     (markReady, stealScheduler) must be declared somewhere in the module:
//     a top-level name, a method, a field or an interface method;
//   - so must every backticked span that is exactly one exported name of
//     two or more capitalised words (SubmitBatchCtx, KindMarker), or else
//     be exported by a standard-library package (MemStats); an acronym
//     word (ServeHTTP, or VmHWM, a /proc field) keeps a name out of the
//     rule;
//   - every path.go:N must name a module file at least N lines long.
//
// A name followed by … or * is a pattern, not a reference. A dotted name
// whose first part is neither a package nor a module type (a variable, a
// file) is not a code reference, and neither is a metric BENCHMARK.json
// declares or the start of one. A struct field's members include its JSON
// name, so a wire field such as JobStatus.latency_ms resolves.

var (
	fence    = regexp.MustCompile("(?m)^[ \t]*```")
	span     = regexp.MustCompile("`[^`]+`")
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*`)
	dotted   = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	camel    = regexp.MustCompile(`^[a-z]+[A-Z]\w*$`)
	exported = regexp.MustCompile(`^(?:[A-Z][a-z0-9]+){2,}$`)
	fileLine = regexp.MustCompile(`([\w./-]+\.go):(\d+)(?:[–-](\d+))?`)
)

// fileExt marks a dotted name that is a file name, not a selector.
var fileExt = map[string]bool{"go": true, "md": true, "json": true, "yml": true, "yaml": true, "mod": true, "sum": true, "sh": true, "txt": true}

// decls is what one package declares: its top-level names, and per type
// its methods, fields and interface methods plus the types it embeds.
type decls struct {
	idents  map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

func newDecls() *decls {
	return &decls{idents: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
}

// add records f's declarations.
func (d *decls) add(f *ast.File) {
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		if name != "" {
			d.members[typ][name] = true
		}
	}
	for _, decl := range f.Decls {
		switch x := decl.(type) {
		case *ast.FuncDecl:
			if x.Recv == nil || len(x.Recv.List) == 0 {
				d.idents[x.Name.Name] = true
			} else {
				member(typeName(x.Recv.List[0].Type), x.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range x.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						d.idents[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					d.idents[typ] = true
					member(typ, "")
					var fields []*ast.Field
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, fld := range fields {
						if len(fld.Names) == 0 {
							if e := typeName(fld.Type); e != "" {
								member(typ, e)
								d.embeds[typ] = append(d.embeds[typ], e)
							}
						}
						for _, n := range fld.Names {
							member(typ, n.Name)
						}
						// A field's JSON name is its name on the wire.
						if fld.Tag != nil {
							tag, _ := strconv.Unquote(fld.Tag.Value)
							if j, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); j != "" && j != "-" {
								member(typ, j)
							}
						}
					}
				}
			}
		}
	}
}

// has reports whether typ has member m, directly or through the types it
// embeds (to a small depth: promotion chains are short).
func (d *decls) has(typ, m string, depth int) bool {
	if d.members[typ][m] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if depth < 3 && d.has(e, m, depth+1) {
			return true
		}
	}
	return false
}

// typeName is the name of a receiver or embedded type: T, *T, T[P] and
// pkg.T all give their last identifier.
func typeName(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.IndexListExpr:
			e = v.X
		case *ast.SelectorExpr:
			return v.Sel.Name
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// index is everything the reference pass resolves against.
type index struct {
	root    string
	tests   map[string]bool     // top-level functions of the module's _test.go files
	pkgs    map[string][]*decls // module packages by package name
	names   map[string]bool     // every name the module declares, members included
	files   []string            // module files, slash-separated and relative to root
	metrics []string            // names BENCHMARK.json declares
	// std holds standard-library packages by name, parsed on first use;
	// stdDirs maps a package name to the GOROOT directories that bear it
	// (see stdPkgDirs).
	std     map[string][]*decls
	stdDirs map[string][]string
	// stdNames is every name the standard library declares, members
	// included, built on the first bare exported name the module lacks.
	stdNames map[string]bool
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildIndex parses every Go file of the module rooted at root.
func buildIndex(root string) (*index, error) {
	ix := &index{root: root, tests: map[string]bool{}, pkgs: map[string][]*decls{}, names: map[string]bool{}, std: map[string][]*decls{}}
	fset := token.NewFileSet()
	byDir := map[string]map[string]*decls{} // dir → package name → decls
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ix.files = append(ix.files, filepath.ToSlash(rel))
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if byDir[dir] == nil {
			byDir[dir] = map[string]*decls{}
		}
		d := byDir[dir][f.Name.Name]
		if d == nil {
			d = newDecls()
			byDir[dir][f.Name.Name] = d
			ix.pkgs[f.Name.Name] = append(ix.pkgs[f.Name.Name], d)
		}
		d.add(f)
		if strings.HasSuffix(name, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					ix.tests[fn.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pkgs := range ix.pkgs {
		for _, d := range pkgs {
			for n := range d.idents {
				ix.names[n] = true
			}
			for _, ms := range d.members {
				for n := range ms {
					ix.names[n] = true
				}
			}
		}
	}
	return ix, ix.loadMetrics()
}

// loadMetrics reads the metric names BENCHMARK.json declares, if the
// module has one: a dotted metric name is not a code reference.
func (ix *index) loadMetrics() error {
	b, err := os.ReadFile(filepath.Join(ix.root, "BENCHMARK.json"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		ix.metrics = append(ix.metrics, m.Name)
	}
	return nil
}

// metric reports whether name is a metric BENCHMARK.json declares or the
// start of one: a stage such as runtime.submit names its metrics.
func (ix *index) metric(name string) bool {
	for _, m := range ix.metrics {
		if strings.HasPrefix(m, name) {
			return true
		}
	}
	return false
}

// stdPkgDirs maps each standard-library package name to the GOROOT
// directories that bear it, listed on first use.
func (ix *index) stdPkgDirs() map[string][]string {
	if ix.stdDirs == nil {
		ix.stdDirs = map[string][]string{}
		src := filepath.Join(build.Default.GOROOT, "src")
		filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return nil
			}
			switch n := e.Name(); {
			case n == "testdata" || n == "vendor" || n == "internal" || path == filepath.Join(src, "cmd"):
				return filepath.SkipDir
			case path != src:
				ix.stdDirs[n] = append(ix.stdDirs[n], path)
			}
			return nil
		})
	}
	return ix.stdDirs
}

// stdPkgs returns the standard-library packages named name, parsing them
// on first use.
func (ix *index) stdPkgs(name string) []*decls {
	if ds, ok := ix.std[name]; ok {
		return ds
	}
	var ds []*decls
	fset := token.NewFileSet()
	for _, dir := range ix.stdPkgDirs()[name] {
		d := newDecls()
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				if f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution); err == nil && f.Name.Name == name {
					d.add(f)
				}
			}
		}
		if len(d.idents) > 0 {
			ds = append(ds, d)
		}
	}
	ix.std[name] = ds
	return ds
}

// inStd reports whether some standard-library package declares name, as a
// top-level name or a member.
func (ix *index) inStd(name string) bool {
	if ix.stdNames == nil {
		ix.stdNames = map[string]bool{}
		for pkg := range ix.stdPkgDirs() {
			for _, d := range ix.stdPkgs(pkg) {
				for n := range d.idents {
					ix.stdNames[n] = true
				}
				for _, ms := range d.members {
					for n := range ms {
						ix.stdNames[n] = true
					}
				}
			}
		}
	}
	return ix.stdNames[name]
}

// resolve checks one dotted name, returning "" when it resolves or is not
// a code reference, and otherwise what is missing.
func (ix *index) resolve(name string) string {
	parts := strings.Split(name, ".")
	if len(parts) > 3 || fileExt[parts[len(parts)-1]] || ix.metric(name) {
		return ""
	}
	first, rest := parts[0], parts[1:]
	if pkgs := slices.Concat(ix.pkgs[first], ix.stdPkgs(first)); len(pkgs) > 0 {
		for _, d := range pkgs {
			if len(rest) == 1 && d.idents[rest[0]] || len(rest) == 2 && d.has(rest[0], rest[1], 0) {
				return ""
			}
		}
		return fmt.Sprintf("%s: no package %s declares %s", name, first, strings.Join(rest, "."))
	}
	// Type.Member: checked only when some module package declares the type.
	known := false
	for _, pkgs := range ix.pkgs {
		for _, d := range pkgs {
			if _, ok := d.members[first]; ok {
				known = true
				if d.has(first, rest[0], 0) {
					return ""
				}
			}
		}
	}
	if known {
		return fmt.Sprintf("%s: type %s has no member %s", name, first, rest[0])
	}
	return ""
}

// lines counts the lines of the module file named by path: its path from
// the root or, failing that, the end of one. ok is false when no file
// matches; with several matches the longest counts.
func (ix *index) lines(path string) (n int, ok bool) {
	for _, f := range ix.files {
		if f != path && !strings.HasSuffix(f, "/"+path) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(ix.root, filepath.FromSlash(f)))
		if err != nil {
			continue
		}
		c := bytes.Count(b, []byte("\n"))
		if len(b) > 0 && b[len(b)-1] != '\n' {
			c++
		}
		n, ok = max(n, c), true
	}
	return n, ok
}

// checkDoc resolves the references in one document's text and returns one
// "name:line: problem" entry per reference that does not resolve.
func (ix *index) checkDoc(name string, text []byte) []string {
	// Fenced code blocks are code, not prose: blank them, keeping the line
	// breaks so line numbers hold.
	text = bytes.Clone(text)
	fences := fence.FindAllIndex(text, -1)
	for i := 0; i+1 < len(fences); i += 2 {
		for j := fences[i][0]; j < fences[i+1][1]; j++ {
			if text[j] != '\n' {
				text[j] = ' '
			}
		}
	}
	var starts []int // offset of each line's first byte
	starts = append(starts, 0)
	for i, c := range text {
		if c == '\n' {
			starts = append(starts, i+1)
		}
	}
	lineOf := func(off int) int { return sort.SearchInts(starts, off+1) }
	var out []string
	report := func(off int, msg string) {
		out = append(out, fmt.Sprintf("%s:%d: %s", name, lineOf(off), msg))
	}
	// pattern reports whether the name at text[end:] is followed by … or *.
	pattern := func(end int) bool {
		rest := text[end:]
		return bytes.HasPrefix(rest, []byte("…")) || bytes.HasPrefix(rest, []byte("*")) ||
			bytes.HasPrefix(rest, []byte(".*")) || bytes.HasPrefix(rest, []byte(".{")) || bytes.HasPrefix(rest, []byte(".…"))
	}
	for _, sp := range span.FindAllIndex(text, -1) {
		body := text[sp[0]:sp[1]]
		switch id := string(body[1 : len(body)-1]); {
		case pattern(sp[1]) || ix.names[id] || testName.FindString(id) == id: // a test has its own rule
		case camel.MatchString(id):
			report(sp[0], fmt.Sprintf("%s: nothing in the module declares it", id))
		case exported.MatchString(id) && !ix.inStd(id):
			report(sp[0], fmt.Sprintf("%s: nothing in the module or the standard library declares it", id))
		}
		for _, m := range testName.FindAllIndex(body, -1) {
			if t := string(body[m[0]:m[1]]); !pattern(sp[0]+m[1]) && !ix.tests[t] {
				report(sp[0]+m[0], fmt.Sprintf("%s: no such test, benchmark or fuzz function", t))
			}
		}
		for _, m := range dotted.FindAllIndex(body, -1) {
			if m[0] > 0 && (body[m[0]-1] == '.' || body[m[0]-1] == '/') || pattern(sp[0]+m[1]) {
				continue
			}
			if msg := ix.resolve(string(body[m[0]:m[1]])); msg != "" {
				report(sp[0]+m[0], msg)
			}
		}
	}
	for _, m := range fileLine.FindAllSubmatchIndex(text, -1) {
		path := string(text[m[2]:m[3]])
		want, _ := strconv.Atoi(string(text[m[4]:m[5]]))
		if m[6] >= 0 {
			end, _ := strconv.Atoi(string(text[m[6]:m[7]]))
			want = max(want, end)
		}
		if n, ok := ix.lines(path); !ok {
			report(m[0], fmt.Sprintf("%s: no such file in the module", path))
		} else if n < want {
			report(m[0], fmt.Sprintf("%s:%d: the file has %d lines", path, want, n))
		}
	}
	return out
}
