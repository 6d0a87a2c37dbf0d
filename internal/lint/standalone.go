package lint

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Finding is one resolved diagnostic with its file position, the unit
// the standalone driver sorts and renders.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// Standalone is the whole-module driver behind cmd/simquerylint. It
// loads every package under -source from source (LoadModule), runs the
// full analyzer suite, and renders the findings as plain text and, with
// -github, as GitHub workflow annotations. With -audit it additionally
// reports stale //lint:allow suppressions. The exit code is 1 when
// anything is found, 2 on driver errors.
func Standalone(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simquerylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		source = fs.String("source", ".", "module root directory to analyze")
		mod    = fs.String("module", "repro", "module import path of -source")
		audit  = fs.Bool("audit", false, "also report stale //lint:allow suppressions")
		github = fs.Bool("github", false, "emit GitHub Actions ::error/::warning annotations")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simquerylint [flags]  (analyze a module from source)\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := All()
	pkgs, err := LoadModule(*source, *mod)
	if err != nil {
		fmt.Fprintf(stderr, "simquerylint: %v\n", err)
		return 2
	}

	var findings []Finding
	for _, pkg := range pkgs {
		var diags []Diagnostic
		if *audit {
			diags, err = Audit(pkg, analyzers)
		} else {
			diags, err = RunAnalyzers(pkg, analyzers)
		}
		if err != nil {
			fmt.Fprintf(stderr, "simquerylint: %s: %v\n", pkg.Pkg.Path(), err)
			return 2
		}
		for _, d := range diags {
			findings = append(findings, Finding{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}

	sortFindings(findings)

	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: [%s] %s\n", f.Position, f.Analyzer, f.Message)
		if *github {
			// Real findings are errors; stale suppressions (the audit
			// pseudo-analyzer) are warnings — they block the nightly
			// audit job, not correctness.
			level := "error"
			if f.Analyzer == "audit" {
				level = "warning"
			}
			// ::error file=...,line=...,col=...::message — GitHub
			// renders these as inline PR annotations.
			fmt.Fprintf(stdout, "::%s file=%s,line=%d,col=%d::[%s] %s\n",
				level, f.Position.Filename, f.Position.Line, f.Position.Column,
				f.Analyzer, githubEscape(f.Message))
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "simquerylint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// sortFindings orders module-wide findings by file, line, column,
// analyzer, then message. Within one package diagnostics are already
// position-sorted, but token.Pos values are FileSet-relative, so the
// concatenation across packages follows load order; sorting on the
// resolved positions makes the text and -github outputs stable
// run to run and diffable across runs.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// githubEscape encodes the characters the workflow-command parser
// treats specially in the message payload.
func githubEscape(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}
