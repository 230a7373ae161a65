package lint_test

import (
	"encoding/json"
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fmi/internal/lint"
)

// checkGolden runs one analyzer fixture through the golden harness and
// fails with one line per mismatch.
func checkGolden(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	diags, err := lint.CheckFixture(dir, analyzers...)
	if err != nil {
		t.Fatalf("CheckFixture(%s): %v", dir, err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

func TestTraceKindFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "tracekind"), lint.TraceKind)
}

func TestLockHeldFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "lockheld"), lint.LockHeld)
}

func TestFaultErrFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "faulterr"), lint.FaultErr)
}

func TestSimTimeFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "simtime"), lint.SimTime)
}

func TestBufReleaseFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "bufrelease"), lint.BufRelease)
}

func TestStaleViewFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "staleview"), lint.StaleView)
}

// TestIgnoreFixture covers the suppression directive's line scopes
// (same line, line above, file-wide) and its analyzer specificity.
// The full suite runs so a directive aimed at another real analyzer
// is valid-but-inapplicable rather than unknown.
func TestIgnoreFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "ignore"), lint.All()...)
}

// TestBadIgnoreDirectives asserts the driver findings for malformed
// and unknown-analyzer directives directly: a want comment cannot
// share the directive's line without becoming part of the directive,
// so this fixture bypasses the golden harness.
func TestBadIgnoreDirectives(t *testing.T) {
	dir := filepath.Join("testdata", "src", "badignore")
	prog, err := lint.Load(dir, filepath.Base(dir))
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	findings := lint.Run(prog, []*lint.Analyzer{lint.SimTime})

	got := make([]string, len(findings))
	for i, f := range findings {
		got[i] = fmt.Sprintf("%s:%d: [%s] %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
	}
	want := []string{
		`cluster.go:12: [fmilint] malformed //fmilint:ignore directive: need "//fmilint:ignore <analyzer> <reason>"`,
		`cluster.go:13: [simtime] direct time.Now in simulated package "cluster"; route timing through the cluster's event hooks or the transport's observation delays`,
		`cluster.go:18: [fmilint] ignore directive names unknown analyzer "bogus"`,
		`cluster.go:19: [simtime] direct time.Now in simulated package "cluster"; route timing through the cluster's event hooks or the transport's observation delays`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}

// TestMainExitCodes runs the command body over three mini-modules, one
// per exit code.
func TestMainExitCodes(t *testing.T) {
	cases := []struct {
		dir  string
		want int
	}{
		{filepath.Join("testdata", "exit", "clean"), lint.ExitClean},
		{filepath.Join("testdata", "exit", "findings"), lint.ExitFindings},
		{filepath.Join("testdata", "exit", "badtype"), lint.ExitLoadErr},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := lint.Main(c.dir, &out, false); got != c.want {
			t.Errorf("Main(%s) = %d, want %d\noutput:\n%s", c.dir, got, c.want, out.String())
		}
	}
}

// TestMainTrimsPatternSuffix checks that the "./..." spelling of the
// go tool is accepted.
func TestMainTrimsPatternSuffix(t *testing.T) {
	var out bytes.Buffer
	root := filepath.Join("testdata", "exit", "clean") + "/..."
	if got := lint.Main(root, &out, false); got != lint.ExitClean {
		t.Errorf("Main(%s) = %d, want %d\noutput:\n%s", root, got, lint.ExitClean, out.String())
	}
}

// TestFindingsOutput pins the report format and summary line.
func TestFindingsOutput(t *testing.T) {
	var out bytes.Buffer
	lint.Main(filepath.Join("testdata", "exit", "findings"), &out, false)
	text := out.String()
	if !strings.Contains(text, `: [simtime] direct time.Now in simulated package "cluster"`) {
		t.Errorf("missing file:line: [analyzer] message report in output:\n%s", text)
	}
	if !strings.Contains(text, "fmilint: 1 finding(s)") {
		t.Errorf("missing summary line in output:\n%s", text)
	}
}

// TestAllSuite guards the registered analyzer set: the suppression
// grammar and docs name these eight.
func TestAllSuite(t *testing.T) {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc string", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	want := []string{"tracekind", "lockheld", "faulterr", "simtime", "bufrelease", "staleview", "determinism", "lockorder"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("All() = %v, want %v", names, want)
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "determinism"), lint.Determinism)
}

func TestLockOrderFixture(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "src", "lockorder"), lint.LockOrder)
}

// TestMainJSON pins the -json report shape on a module with one
// unsuppressed determinism finding and one suppressed one: the
// suppressed finding stays in the inventory, the exit code counts
// only the unsuppressed.
func TestMainJSON(t *testing.T) {
	var out bytes.Buffer
	got := lint.Main(filepath.Join("testdata", "exit", "detfindings"), &out, true)
	if got != lint.ExitFindings {
		t.Fatalf("Main = %d, want %d\noutput:\n%s", got, lint.ExitFindings, out.String())
	}
	var rep struct {
		Module   string `json:"module"`
		Findings []struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Analyzer   string `json:"analyzer"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		} `json:"findings"`
		Unsuppressed int `json:"unsuppressed"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Module != "detfindings" {
		t.Errorf("module = %q, want detfindings", rep.Module)
	}
	if rep.Unsuppressed != 1 {
		t.Errorf("unsuppressed = %d, want 1", rep.Unsuppressed)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(rep.Findings), out.String())
	}
	for i, want := range []struct {
		analyzer   string
		msgPart    string
		suppressed bool
	}{
		{"determinism", "map iteration order is nondeterministic", false},
		{"determinism", "process-global source", true},
	} {
		f := rep.Findings[i]
		if f.Analyzer != want.analyzer || f.Suppressed != want.suppressed || !strings.Contains(f.Message, want.msgPart) {
			t.Errorf("finding %d = %+v, want analyzer %s suppressed %v message containing %q", i, f, want.analyzer, want.suppressed, want.msgPart)
		}
		if f.File == "" || f.Line == 0 {
			t.Errorf("finding %d missing position: %+v", i, f)
		}
	}
}

// TestJSONLoadError pins the error shape: a JSON object with the
// error string and an empty findings array, exit code 2.
func TestJSONLoadError(t *testing.T) {
	var out bytes.Buffer
	if got := lint.Main(filepath.Join("testdata", "exit", "badtype"), &out, true); got != lint.ExitLoadErr {
		t.Fatalf("Main = %d, want %d", got, lint.ExitLoadErr)
	}
	var rep struct {
		Error    string            `json:"error"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Error == "" {
		t.Errorf("error field empty:\n%s", out.String())
	}
	if rep.Findings == nil || len(rep.Findings) != 0 {
		t.Errorf("findings = %v, want present and empty", rep.Findings)
	}
}

// TestRepoSelfLint runs the full suite over this repository: the tree
// must stay clean, and every surviving //fmilint:ignore directive must
// be live (a stale one is itself a finding). This is the regression
// test that keeps the suppression inventory honest.
func TestRepoSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo type-check is slow")
	}
	var out bytes.Buffer
	if got := lint.Main(filepath.Join("..", ".."), &out, false); got != lint.ExitClean {
		t.Errorf("repo lint = exit %d, want clean:\n%s", got, out.String())
	}
}
