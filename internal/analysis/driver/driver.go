// Package driver runs a set of analyzers over module packages and
// renders their findings: the multichecker behind cmd/escort-lint.
//
// A run produces a Result — structured findings plus any per-package
// load errors — that renders as plain text, JSON (-json), or SARIF
// 2.1.0 (-sarif) for CI artifact upload. Loading is partial: a package
// that fails to type-check is reported as a load error while every
// healthy package is still analyzed, so one broken corner of the module
// cannot mask findings in the rest.
//
// Findings can be suppressed per line with a comment on the flagged
// line (or the line above):
//
//	//escort:ignore <analyzer>[,<analyzer>...] <reason>
//
// "all" suppresses every analyzer. Use sparingly — the point of the
// suite is that accounting and determinism hazards stay visible.
package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Options configures a lint run.
type Options struct {
	// Dir is the module root for package loading ("" = cwd).
	Dir string
	// Patterns are go list package patterns (default ./...).
	Patterns []string
	// Tests includes _test.go files and external test packages.
	Tests bool
	// Analyzers to run.
	Analyzers []*analysis.Analyzer
}

// Finding is one rendered diagnostic.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Path     string `json:"path"` // module-relative where possible
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Result is the outcome of a lint run.
type Result struct {
	Findings []Finding `json:"findings"`
	// LoadErrors lists packages that failed to parse or type-check and
	// were skipped ("importpath: error"). Non-empty load errors mean
	// the run was incomplete: exit 2, even when findings exist.
	LoadErrors []string `json:"load_errors,omitempty"`

	analyzers []*analysis.Analyzer
}

// Run executes the analyzers over the matched packages. The error
// return is reserved for total failure (pattern listing failed, or an
// analyzer itself errored); per-package load failures land in
// Result.LoadErrors with the healthy packages still analyzed.
func Run(opts Options) (*Result, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := load.NewLoader(opts.Dir, opts.Tests)
	pkgs, loadErrs, err := l.LoadAll(patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{analyzers: opts.Analyzers}
	for _, le := range loadErrs {
		res.LoadErrors = append(res.LoadErrors, le.Error())
	}
	sort.Strings(res.LoadErrors)

	var all []analysis.Diagnostic
	for _, p := range pkgs {
		// Line-comment index per file, for //escort:ignore.
		comments := map[string]analysis.LineComments{}
		for i, f := range p.Files {
			comments[p.FileNames[i]] = analysis.CollectLineComments(l.Fset(), f)
		}
		for _, a := range opts.Analyzers {
			pass := analysis.NewPass(a, l.Fset(), p.Files, p.FileNames, p.Types, p.Info, p.Deps,
				func(d analysis.Diagnostic) {
					pos := l.Fset().Position(d.Pos)
					if lc, ok := comments[pos.Filename]; ok &&
						lc.HasAnnotation(pos.Line, "ignore", d.Analyzer) {
						return
					}
					all = append(all, d)
				})
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", p.ImportPath, a.Name, err)
			}
		}
	}

	analysis.SortDiagnostics(l.Fset(), all)
	for _, d := range all {
		pos := l.Fset().Position(d.Pos)
		res.Findings = append(res.Findings, Finding{
			Analyzer: d.Analyzer,
			Path:     relPath(opts.Dir, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  d.Message,
		})
	}
	return res, nil
}

// WriteText renders findings one per line — path:line:col: message
// [analyzer] — followed by load errors, matching the classic vet-style
// output.
func (r *Result) WriteText(w io.Writer) error {
	for _, f := range r.Findings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.Path, f.Line, f.Col, f.Message, f.Analyzer); err != nil {
			return err
		}
	}
	for _, le := range r.LoadErrors {
		if _, err := fmt.Fprintf(w, "load error: %s\n", le); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the result as a single JSON object.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Keep "findings": [] rather than null for empty runs.
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	return enc.Encode(r)
}

// ---- SARIF 2.1.0 ----

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool        sarifTool         `json:"tool"`
	Results     []sarifResult     `json:"results"`
	Invocations []sarifInvocation `json:"invocations"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

type sarifInvocation struct {
	ExecutionSuccessful bool                `json:"executionSuccessful"`
	Notifications       []sarifNotification `json:"toolExecutionNotifications,omitempty"`
}

type sarifNotification struct {
	Level   string    `json:"level"`
	Message sarifText `json:"message"`
}

// WriteSARIF renders the result as a SARIF 2.1.0 log: one run, one
// rule per analyzer, findings as level=warning results, and load errors
// as error-level tool notifications with executionSuccessful=false.
func (r *Result) WriteSARIF(w io.Writer) error {
	drv := sarifDriver{Name: "escort-lint"}
	for _, a := range r.analyzers {
		drv.Rules = append(drv.Rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	results := []sarifResult{}
	for _, f := range r.Findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.Path)},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	inv := sarifInvocation{ExecutionSuccessful: len(r.LoadErrors) == 0}
	for _, le := range r.LoadErrors {
		inv.Notifications = append(inv.Notifications, sarifNotification{
			Level: "error", Message: sarifText{Text: le},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: drv}, Results: results, Invocations: []sarifInvocation{inv}}},
	})
}

func relPath(dir, name string) string {
	if dir == "" {
		dir = "."
	}
	abs, err1 := filepath.Abs(dir)
	if err1 != nil {
		return name
	}
	if rel, err := filepath.Rel(abs, name); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return name
}
