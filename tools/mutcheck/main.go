// Command mutcheck checks DESIGN.md's Mechanism table against the code.
// Each entry of mutants.json (next to this file) breaks one mechanism with
// one source edit and names the tests that must fail without it:
//
//	go run ./tools/mutcheck
//
// For every entry it writes the mutant to a temporary directory and runs
// the named tests of the entry's packages through go test -overlay, so the
// tree is never touched. It fails when
//
//   - the entry's span is missing from its file or occurs more than once
//     (a refactor that moves the code breaks the entry loudly);
//   - a named test passes, skips or never runs (a skipped test is not a
//     kill);
//   - the entry names a row the Mechanism table does not have;
//   - a table row has no entry and its verdict does not say why, with the
//     words "no single-span mutation".
//
// It runs from the module root and takes no flags.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// mutant is one entry of mutants.json.
type mutant struct {
	Row        string   `json:"row"`  // the Mechanism-table row, first cell verbatim
	File       string   `json:"file"` // relative to the module root
	Span       string   `json:"span"` // must occur exactly once in File
	With       string   `json:"with"` // replaces Span
	Pkgs       []string `json:"pkgs"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Tests      []string `json:"tests"` // every one must fail
}

// noSpan is what a verdict says when a row has no entry.
const noSpan = "no single-span mutation"

func main() {
	start := time.Now()
	err := check(".", os.Stdout)
	fmt.Printf("mutcheck: %s wall\n", time.Since(start).Round(100*time.Millisecond))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutcheck:", err)
		os.Exit(1)
	}
}

// check runs every entry of root's tools/mutcheck/mutants.json and matches
// the entries against root's DESIGN.md. It reports each entry on out and
// returns an error naming every problem.
func check(root string, out io.Writer) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(root, "tools", "mutcheck", "mutants.json"))
	if err != nil {
		return err
	}
	var list []mutant
	if err := json.Unmarshal(data, &list); err != nil {
		return fmt.Errorf("mutants.json: %v", err)
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return err
	}
	rows, verdicts := tableRows(string(design))
	var problems []string
	covered := map[string]bool{}
	for i, m := range list {
		if _, ok := verdicts[m.Row]; !ok {
			problems = append(problems, fmt.Sprintf("entry %d: no Mechanism-table row %q", i+1, m.Row))
		}
		covered[m.Row] = true
		start := time.Now()
		err := run(root, m)
		status := "killed"
		if err != nil {
			status = "FAIL: " + err.Error()
			problems = append(problems, fmt.Sprintf("entry %d (%s): %v", i+1, m.Row, err))
		}
		fmt.Fprintf(out, "%2d %-60.60s %5.1fs %s\n", i+1, m.Row, time.Since(start).Seconds(), status)
	}
	for _, r := range rows {
		if !covered[r] && !strings.Contains(verdicts[r], noSpan) {
			problems = append(problems, fmt.Sprintf("row %q has no entry and its verdict does not say %q", r, noSpan))
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n  "))
	}
	return nil
}

// tableRows returns the Mechanism table's row names in order and each
// row's verdict (its last cell).
func tableRows(design string) (rows []string, verdicts map[string]string) {
	verdicts = map[string]string{}
	in, body := false, false
	for _, line := range strings.Split(design, "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = line == "## Mechanism table"
		case !in || !strings.HasPrefix(line, "|"):
		case strings.HasPrefix(line, "|---"):
			body = true
		case body:
			cells := strings.Split(strings.Trim(line, "| "), "|")
			name := strings.TrimSpace(cells[0])
			rows = append(rows, name)
			verdicts[name] = strings.TrimSpace(cells[len(cells)-1])
		}
	}
	return rows, verdicts
}

// run builds m's mutant and runs its tests; nil means every named test
// failed.
func run(root string, m mutant) error {
	path := filepath.Join(root, m.File)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if n := strings.Count(string(src), m.Span); n != 1 {
		return fmt.Errorf("span occurs %d times in %s, want exactly once", n, m.File)
	}
	dir, err := os.MkdirTemp("", "mutcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mutated := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.Span, m.With, 1)), 0o644); err != nil {
		return err
	}
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		return err
	}
	args := []string{"test", "-overlay", overlayPath, "-count=1", "-json", "-timeout=1m",
		"-run", "^(" + strings.Join(m.Tests, "|") + ")$"}
	cmd := exec.Command("go", append(args, m.Pkgs...)...)
	cmd.Dir = root
	cmd.Env = os.Environ()
	if m.GOMAXPROCS > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(m.GOMAXPROCS))
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, _ := cmd.Output() // the mutant is meant to fail
	return verdict(stdout, m.Tests, stderr.String())
}

// verdict reads go test -json output: every named test must have failed,
// and only failed.
func verdict(out []byte, tests []string, stderr string) error {
	actions := map[string][]string{}
	var tail []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Action {
		case "pass", "fail", "skip":
			if ev.Test != "" && !strings.Contains(ev.Test, "/") {
				actions[ev.Test] = append(actions[ev.Test], ev.Action)
			}
		case "output", "build-output":
			tail = append(tail, strings.TrimRight(ev.Output, "\n"))
		}
	}
	var bad []string
	for _, name := range tests {
		got := strings.Join(actions[name], ", ")
		switch {
		case got == "":
			bad = append(bad, name+" never ran")
		case strings.Contains(got, "pass") || strings.Contains(got, "skip"):
			bad = append(bad, name+" did "+got+", want fail")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	msg := strings.Join(bad, "; ")
	if ctx := strings.TrimSpace(strings.Join(tail, "\n") + "\n" + stderr); ctx != "" {
		msg += "\n" + ctx
	}
	return errors.New(msg)
}
