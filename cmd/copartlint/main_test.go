package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestListAnalyzers(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"determinism", "noalloc", "directives", "floatcmp"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 4 {
		t.Errorf("-list printed %d analyzers, want 4:\n%s", n, out.String())
	}
}

func TestUnsupportedArgument(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./cmd/..."}, &out, &errOut); code != 2 {
		t.Fatalf("run(./cmd/...) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unsupported argument") {
		t.Errorf("stderr missing explanation: %s", errOut.String())
	}
}

func TestMissingModule(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("run on dir without go.mod = %d, want 2", code)
	}
}

func TestFindingsExitOne(t *testing.T) {
	// A module named repro puts internal/core inside the determinism
	// scope, so a bare time.Now there must surface as a finding.
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/core/clock.go": `package core

import "time"

// Stamp reads the wall clock where determinism is required.
func Stamp() time.Time {
	return time.Now()
}
`,
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1; stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "wall-clock read time.Now") {
		t.Errorf("stdout missing the diagnostic:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "1 finding(s)") {
		t.Errorf("stderr missing the summary: %s", errOut.String())
	}
}

func TestJSONFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/core/clock.go": `package core

import "time"

// Stamp reads the wall clock where determinism is required.
func Stamp() time.Time {
	return time.Now()
}
`,
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir, "-json"}, &out, &errOut); code != 1 {
		t.Fatalf("run(-json) = %d, want 1; stderr: %s", code, errOut.String())
	}
	var findings []analysis.Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("decoded %d findings, want 1: %+v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "determinism" {
		t.Errorf("finding analyzer = %q, want determinism", f.Analyzer)
	}
	if !strings.Contains(f.Message, "wall-clock read time.Now") {
		t.Errorf("finding message = %q, want wall-clock diagnostic", f.Message)
	}
	if f.Line == 0 || !strings.HasSuffix(f.File, "clock.go") {
		t.Errorf("finding position = %s:%d, want clock.go with a line", f.File, f.Line)
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"lib.go": "package lib\n\n// Add adds.\nfunc Add(a, b int) int { return a + b }\n",
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-json) = %d, want 0; stderr: %s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

func TestPassSelection(t *testing.T) {
	// The module has one determinism finding; restricting the run to
	// floatcmp must make it clean, and restricting it to determinism
	// must keep the finding.
	dir := writeModule(t, map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/core/clock.go": `package core

import "time"

// Stamp reads the wall clock where determinism is required.
func Stamp() time.Time {
	return time.Now()
}
`,
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir, "-pass", "floatcmp"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-pass floatcmp) = %d, want 0; stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-dir", dir, "-pass", "determinism,directives"}, &out, &errOut); code != 1 {
		t.Fatalf("run(-pass determinism,directives) = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "wall-clock read time.Now") {
		t.Errorf("stdout missing the diagnostic:\n%s", out.String())
	}
}

func TestPassUnknownName(t *testing.T) {
	// A typo and the retired parclosure pass are both usage errors.
	for _, name := range []string{"determinsim", "parclosure"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-pass", name}, &out, &errOut); code != 2 {
			t.Fatalf("run(-pass %s) = %d, want 2", name, code)
		}
		if want := "available: determinism, noalloc, directives, floatcmp"; !strings.Contains(errOut.String(), "unknown pass") || !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing the unknown-pass explanation %q: %s", want, errOut.String())
		}
	}
}

func TestCleanModuleExitZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"lib.go": `package lib

// Add is free of anything the suite checks.
func Add(a, b int) int {
	return a + b
}
`,
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0; stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean module produced output:\n%s", out.String())
	}
}
