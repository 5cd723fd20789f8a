package loader

import (
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot returns the module root (two levels above this package).
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "..")
}

func TestLoadTypeChecksModulePackage(t *testing.T) {
	pkgs, err := Load(repoRoot(t), "./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "rups/internal/stats" || p.Name != "stats" {
		t.Fatalf("unexpected package identity %q %q", p.Path, p.Name)
	}
	if len(p.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", p.TypeErrors)
	}
	if p.Types.Scope().Lookup("Pearson") == nil {
		t.Fatal("stats.Pearson not found in package scope")
	}
	if len(p.Syntax) == 0 {
		t.Fatal("no syntax trees")
	}
}

func TestLoadResolvesIntraModuleImports(t *testing.T) {
	// core imports rups/internal/stats and rups/internal/trajectory; both
	// must come in through export data.
	pkgs, err := Load(repoRoot(t), "./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkgs[0].TypeErrors)
	}
}

func TestLoadMultiPackage(t *testing.T) {
	// trajectory and v2v in one load, where v2v imports trajectory: the
	// import must resolve against the same export data the other pattern
	// was compiled from, and each package must see the other's types.
	pkgs, err := Load(repoRoot(t), "./internal/trajectory", "./internal/v2v")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
		byPath[p.Path] = p
	}
	traj, ok := byPath["rups/internal/trajectory"]
	if !ok {
		t.Fatal("rups/internal/trajectory not loaded")
	}
	v2v, ok := byPath["rups/internal/v2v"]
	if !ok {
		t.Fatal("rups/internal/v2v not loaded")
	}
	// The cross-package dependency must be wired: v2v's Delta.Marks field
	// is typed with trajectory.GeoMark, and that named type must be the
	// trajectory package's own object, not a stub.
	geoMark := traj.Types.Scope().Lookup("GeoMark")
	if geoMark == nil {
		t.Fatal("trajectory.GeoMark not found")
	}
	delta := v2v.Types.Scope().Lookup("Delta")
	if delta == nil {
		t.Fatal("v2v.Delta not found")
	}
	found := false
	for _, imp := range v2v.Types.Imports() {
		if imp.Path() == "rups/internal/trajectory" {
			found = true
		}
	}
	if !found {
		t.Errorf("v2v does not record its import of trajectory: %v", v2v.Types.Imports())
	}
}

func TestLoadManyPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	pkgs, err := Load(repoRoot(t), "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("expected the full internal tree, got %d packages", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
}
