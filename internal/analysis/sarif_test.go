package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

func TestWriteSARIF(t *testing.T) {
	analyzers := []*Analyzer{
		{Name: "wiretaint", Doc: "flags unchecked wire counts"},
		{Name: "errflow", Doc: "flags dropped errors"},
	}
	diags := []Diagnostic{
		{
			Analyzer: "wiretaint",
			Pos:      token.Position{Filename: "/repo/internal/trace/trace.go", Line: 42, Column: 7},
			Message:  "wire-decoded value `n` reaches make size without a bound check",
		},
		{
			Analyzer: "errflow",
			Pos:      token.Position{Filename: "/elsewhere/outside.go", Line: 3, Column: 1},
			Message:  "error dropped",
		},
	}

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags, analyzers, "/repo"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "rups-lint" {
		t.Errorf("driver name = %q, want rups-lint", run.Tool.Driver.Name)
	}
	// Rules are sorted and cover every analyzer, fired or not.
	if len(run.Tool.Driver.Rules) != 2 ||
		run.Tool.Driver.Rules[0].ID != "errflow" || run.Tool.Driver.Rules[1].ID != "wiretaint" {
		t.Errorf("rules = %+v, want [errflow wiretaint]", run.Tool.Driver.Rules)
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "wiretaint" || first.Level != "error" {
		t.Errorf("result 0 = %+v, want wiretaint/error", first)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/trace/trace.go" {
		t.Errorf("URI = %q, want repo-relative internal/trace/trace.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("region = %+v, want 42:7", loc.Region)
	}
	// A file outside the root keeps its absolute path.
	outside := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if outside != "/elsewhere/outside.go" {
		t.Errorf("outside URI = %q, want absolute /elsewhere/outside.go", outside)
	}
}

func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, []*Analyzer{{Name: "x", Doc: "d"}}, ""); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	runs := log["runs"].([]any)
	results := runs[0].(map[string]any)["results"].([]any)
	if len(results) != 0 {
		t.Errorf("got %d results, want an empty (non-null) array", len(results))
	}
}
