// Package analysistest runs an analyzer over a golden package and checks
// its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// A test package lives under testdata/src/<name>/ next to the analyzer's
// test. Lines that must trigger a diagnostic carry a comment of the form
//
//	x := a == b // want "floating-point == comparison"
//
// where each quoted string is a regular expression that must match the
// message of one diagnostic reported on that line. Lines without a want
// comment must stay silent; both directions are asserted.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rups/internal/analysis"
	"rups/internal/analysis/dataflow"
	"rups/internal/analysis/loader"
)

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	pattern string
	matched bool
}

// Run loads the package directories under testdata/src in one go — so
// cross-package golden setups (a restricted package calling a helper
// package) share one interprocedural program, exactly like the real
// driver — and applies the analyzer, asserting that diagnostics and
// // want comments agree.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		patterns[i] = "./" + pkg
	}
	loaded, err := loader.Load(filepath.Join(testdata, "src"), patterns...)
	if err != nil {
		t.Errorf("%v: %v", pkgs, err)
		return
	}
	for _, lp := range loaded {
		if len(lp.TypeErrors) > 0 {
			t.Errorf("%s: type errors in golden package: %v", lp.Path, lp.TypeErrors)
		}
	}
	diags, err := analysis.Run(loaded, []*analysis.Analyzer{a}, dataflow.NewProgram(loaded))
	if err != nil {
		t.Errorf("%v: %v", pkgs, err)
		return
	}
	checkExpectations(t, strings.Join(pkgs, ","), loaded, diags)
}

// checkExpectations matches diagnostics against want comments.
func checkExpectations(t *testing.T, pkg string, loaded []*loader.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, lp := range loaded {
		for _, file := range lp.Syntax {
			for _, group := range file.Comments {
				for _, c := range group.List {
					wants = append(wants, parseWant(lp.Fset, c.Pos(), c.Text)...)
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			ok, err := regexpMatch(w.pattern, d.Message)
			if err != nil {
				t.Errorf("%s: bad want pattern %q: %v", pkg, w.pattern, err)
				w.matched = true // don't report it twice
				continue
			}
			if ok {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pkg, d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matching %q", pkg, filepath.Base(w.file), w.line, w.pattern)
		}
	}
}

// parseWant extracts the expectations from one comment.
func parseWant(fset *token.FileSet, pos token.Pos, text string) []*expectation {
	body := strings.TrimPrefix(text, "//")
	idx := strings.Index(body, "want ")
	if idx < 0 {
		return nil
	}
	position := fset.Position(pos)
	rest := strings.TrimSpace(body[idx+len("want "):])
	var out []*expectation
	for rest != "" {
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			break
		}
		pattern, err := strconv.Unquote(quoted)
		if err != nil {
			break
		}
		out = append(out, &expectation{
			file:    position.Filename,
			line:    position.Line,
			pattern: pattern,
		})
		rest = strings.TrimSpace(rest[len(quoted):])
	}
	return out
}

// regexpMatch reports whether message matches the pattern as an unanchored
// regular expression.
func regexpMatch(pattern, message string) (bool, error) {
	return regexp.MatchString(pattern, message)
}
