// Command rups-lint is the repository's domain-aware multichecker. It runs
// the custom analyzers from internal/analysis/... over the packages
// matching the given go-list patterns (default ./...) and exits non-zero
// when any diagnostic survives.
//
//	rups-lint                      # lint the whole module
//	rups-lint ./internal/core ./internal/sim
//	rups-lint -list                # describe the analyzers
//	rups-lint -json ./...          # SARIF 2.1.0 on stdout
//	rups-lint -only wiretaint      # run a subset
//	rups-lint -write-baseline lint-baseline.json ./...
//	rups-lint -baseline lint-baseline.json ./...
//	rups-lint -baseline lint-baseline.json -prune-baseline check ./...
//	rups-lint -list-ignores        # audit every lint:ignore directive
//
// Suppress an individual false positive with a mandatory reason:
//
//	//lint:ignore floatcmp zero value means "unset" in this config
//
// A directive without a reason suppresses nothing, and -list-ignores
// exits non-zero when it finds one, so CI keeps suppressions honest.
//
// See docs/STATIC_ANALYSIS.md for the analyzer catalogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rups/internal/analysis"
	"rups/internal/analysis/dataflow"
	"rups/internal/analysis/errflow"
	"rups/internal/analysis/floatcmp"
	"rups/internal/analysis/indexunit"
	"rups/internal/analysis/loader"
	"rups/internal/analysis/naninguard"
	"rups/internal/analysis/timedet"
	"rups/internal/analysis/wiretaint"
)

// analyzers is the multichecker's roster. Adding an analyzer means
// implementing the internal/analysis.Analyzer interface and listing it
// here.
var analyzers = []*analysis.Analyzer{
	errflow.Analyzer,
	floatcmp.Analyzer,
	indexunit.Analyzer,
	naninguard.Analyzer,
	timedet.Analyzer,
	wiretaint.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the registered analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	jsonOut := flag.Bool("json", false, "emit findings as SARIF 2.1.0 on stdout")
	baselinePath := flag.String("baseline", "", "suppress findings fingerprinted in this baseline file")
	writeBaseline := flag.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	pruneBaseline := flag.String("prune-baseline", "", "with -baseline: \"check\" exits 1 if any entry no longer fires, \"rewrite\" drops stale entries from the file")
	listIgnores := flag.Bool("list-ignores", false, "print every lint:ignore directive; exit 1 if any lacks a justification")
	flag.Parse()

	if *pruneBaseline != "" {
		if *pruneBaseline != "check" && *pruneBaseline != "rewrite" {
			fmt.Fprintf(os.Stderr, "rups-lint: -prune-baseline must be \"check\" or \"rewrite\", got %q\n", *pruneBaseline)
			os.Exit(2)
		}
		if *baselinePath == "" {
			fmt.Fprintln(os.Stderr, "rups-lint: -prune-baseline requires -baseline")
			os.Exit(2)
		}
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	roster, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
		os.Exit(2)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "rups-lint: %s: %v\n", p.Path, terr)
		}
	}

	if *listIgnores {
		os.Exit(reportIgnores(pkgs, cwd))
	}

	// One dataflow program is shared by the roster: def-use chains and
	// cross-package taint summaries are computed once, not per analyzer.
	diags, err := analysis.Run(pkgs, roster, dataflow.NewProgram(pkgs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
		os.Exit(2)
	}

	if *writeBaseline != "" {
		b := analysis.NewBaseline(diags, cwd)
		if err := b.WriteFile(*writeBaseline); err != nil {
			fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rups-lint: %d finding(s) baselined to %s\n", len(diags), *writeBaseline)
		return
	}
	if *baselinePath != "" {
		b, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
			os.Exit(2)
		}
		if *pruneBaseline != "" {
			kept, stale := b.Prune(diags, cwd)
			for _, e := range stale {
				fmt.Fprintf(os.Stderr, "rups-lint: stale baseline entry: %s %s: %q (%d unused)\n",
					e.Analyzer, e.File, e.Message, e.Count)
			}
			switch {
			case len(stale) == 0:
				fmt.Fprintf(os.Stderr, "rups-lint: baseline %s is fresh (%d entries)\n", *baselinePath, len(b.Entries))
			case *pruneBaseline == "rewrite":
				if err := kept.WriteFile(*baselinePath); err != nil {
					fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
					os.Exit(2)
				}
				fmt.Fprintf(os.Stderr, "rups-lint: pruned %d stale entr(ies) from %s\n", len(stale), *baselinePath)
			default:
				fmt.Fprintf(os.Stderr, "rups-lint: baseline %s has %d stale entr(ies); rerun with -prune-baseline rewrite\n",
					*baselinePath, len(stale))
				os.Exit(1)
			}
			return
		}
		diags = b.Filter(diags, cwd)
	}

	if *jsonOut {
		if err := analysis.WriteSARIF(os.Stdout, diags, roster, cwd); err != nil {
			fmt.Fprintf(os.Stderr, "rups-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rups-lint: %d problem(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// selectAnalyzers applies -only to the registered roster.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	wanted, err := nameSet(only)
	if err != nil {
		return nil, err
	}
	var roster []*analysis.Analyzer
	for _, a := range analyzers {
		if wanted[a.Name] {
			roster = append(roster, a)
			delete(wanted, a.Name)
		}
	}
	for name := range wanted {
		return nil, fmt.Errorf("unknown analyzer %q", name)
	}
	return roster, nil
}

// nameSet splits a comma-separated flag value.
func nameSet(csv string) (map[string]bool, error) {
	out := make(map[string]bool)
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("empty analyzer name in %q", csv)
		}
		out[name] = true
	}
	return out, nil
}

// reportIgnores prints every suppression directive and returns the
// process exit code: 1 when any directive lacks a justification.
func reportIgnores(pkgs []*loader.Package, root string) int {
	ignores := analysis.CollectIgnores(pkgs)
	unjustified := 0
	for _, ig := range ignores {
		file := ig.Pos.Filename
		if rel, err := relPath(root, file); err == nil {
			file = rel
		}
		reason := ig.Reason
		if reason == "" {
			reason = "(NO JUSTIFICATION — directive is inert; add a reason or delete it)"
			unjustified++
		}
		fmt.Printf("%s:%d: %s: %s\n", file, ig.Pos.Line, strings.Join(ig.Analyzers, ","), reason)
	}
	fmt.Fprintf(os.Stderr, "rups-lint: %d suppression(s), %d unjustified\n", len(ignores), unjustified)
	if unjustified > 0 {
		return 1
	}
	return 0
}

// relPath is filepath.Rel without escaping the root: a sibling path that
// merely shares the root's string prefix (root=/u/repo, path=/u/repo2/x)
// stays absolute rather than mis-relativizing to "2/x".
func relPath(root, path string) (string, error) {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return "", err
	}
	if rel == ".." || strings.HasPrefix(rel, ".."+string(os.PathSeparator)) {
		return "", fmt.Errorf("outside root")
	}
	return rel, nil
}
