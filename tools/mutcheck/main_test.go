package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A throwaway module: Add is tested, Sum is not, and TestSkip skips.
var module = map[string]string{
	"go.mod": "module m\n\ngo 1.22\n",
	"p/p.go": "package p\n\nfunc Add(a, b int) int { return a + b }\n\nfunc Sum(a, b int) int { return a + b }\n",
	"p/p_test.go": `package p

import "testing"

func TestAdd(t *testing.T) {
	if Add(2, 3) != 5 {
		t.Fatal("Add(2, 3) != 5")
	}
}

func TestSkip(t *testing.T) { t.Skip("contended") }
`,
}

const table = `# Design

## Mechanism table

| mechanism | keeps | fails without it | rent | verdict |
|---|---|---|---|---|
| adder | sums | ` + "`TestAdd`" + ` | none | kept |
| proof | an invariant | a fuzz target | correctness | kept; no single-span mutation: the proof is the test |

## Testing
`

func TestCheckFailureModes(t *testing.T) {
	killAdd := mutant{Row: "adder", File: "p/p.go", Span: "Add(a, b int) int { return a + b", With: "Add(a, b int) int { return a - b",
		Pkgs: []string{"./p"}, Tests: []string{"TestAdd"}}
	with := func(edit func(*mutant)) mutant { m := killAdd; edit(&m); return m }
	for _, c := range []struct {
		name    string
		entries []mutant
		extra   string // appended to the table
		want    string // "" means check passes
	}{
		{"killed", []mutant{killAdd}, "", ""},
		{"span missing", []mutant{with(func(m *mutant) { m.Span = "a * b" })}, "", "span occurs 0 times"},
		{"span twice", []mutant{with(func(m *mutant) { m.Span = "return a + b" })}, "", "span occurs 2 times"},
		{"test does not exist", []mutant{with(func(m *mutant) { m.Tests = []string{"TestNope"} })}, "", "TestNope never ran"},
		{"test skips", []mutant{with(func(m *mutant) { m.Tests = []string{"TestSkip"} })}, "", "TestSkip did skip"},
		{"mutant survives", []mutant{with(func(m *mutant) {
			m.Span, m.With = "Sum(a, b int) int { return a + b", "Sum(a, b int) int { return a - b"
		})}, "", "TestAdd did pass"},
		{"row without entry or reason", []mutant{killAdd}, "| orphan | x | y | z | kept |\n", `row "orphan" has no entry`},
		{"entry without row", []mutant{killAdd, with(func(m *mutant) { m.Row = "gone" })}, "", `no Mechanism-table row "gone"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			entries, _ := json.Marshal(c.entries)
			files := map[string]string{
				"DESIGN.md":                   strings.Replace(table, "\n## Testing", c.extra+"\n## Testing", 1),
				"tools/mutcheck/mutants.json": string(entries),
			}
			for name, body := range module {
				files[name] = body
			}
			for name, body := range files {
				path := filepath.Join(root, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := check(root, io.Discard)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("check failed: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("check error %v, want one containing %q", err, c.want)
			}
		})
	}
}
