package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tmpModule writes a throwaway module with one package and chdirs into
// it for the duration of the test, so run() resolves it as the root.
func tmpModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

const violationSrc = `package tmpmod

import (
	"fmt"
	"io"
)

var ErrGone = fmt.Errorf("gone")

func classify(err error) string {
	if err == io.EOF {
		return "eof"
	}
	if err == ErrGone {
		return "gone"
	}
	return "other"
}
`

// TestDeterministicOutput runs the full suite twice over the same tree:
// the outputs must be byte-identical (diagnostics sort by file, line,
// column, analyzer).
func TestDeterministicOutput(t *testing.T) {
	tmpModule(t, map[string]string{
		"a.go": violationSrc,
		"b.go": `package tmpmod

import "os"

func eof(err error) bool { return err == os.ErrClosed }
`,
	})
	outputs := make([]string, 2)
	for i := range outputs {
		var stdout, stderr bytes.Buffer
		code := run([]string{"./..."}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("run %d: want exit 1, got %d (stderr: %s)", i, code, stderr.String())
		}
		outputs[i] = stdout.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("two runs differ:\n--- first\n%s\n--- second\n%s", outputs[0], outputs[1])
	}
	// The sort contract: a.go's findings precede b.go's, in line order.
	lines := strings.Split(strings.TrimSpace(outputs[0]), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 findings, got %d:\n%s", len(lines), outputs[0])
	}
	if !strings.Contains(lines[0], "a.go") || !strings.Contains(lines[1], "a.go") || !strings.Contains(lines[2], "b.go") {
		t.Errorf("findings not sorted by file:\n%s", outputs[0])
	}
}

// TestExitCodes pins repolint's contract with make lint: exit 1 while
// any unsuppressed finding remains, 0 once only suppressed ones do (with
// the count on stderr), 2 on a usage or load error. -suppressed prints
// the hidden findings, marked.
func TestExitCodes(t *testing.T) {
	const finding = `package tmpmod

import "io"

func eof(err error) bool { return err == io.EOF }
`
	const suppressed = `package tmpmod

import "io"

//lint:ignore sentinelcmp the caller never wraps
func bare(err error) bool { return err == io.EOF }
`
	cases := []struct {
		name       string
		files      map[string]string
		args       []string
		wantCode   int
		wantStdout []string // suffix of each stdout line, in order
		wantStderr string
	}{
		{
			name:       "finding",
			files:      map[string]string{"a.go": finding, "b.go": suppressed},
			args:       []string{"./..."},
			wantCode:   1,
			wantStdout: []string{"a.go:5:35: io.EOF compared with ==: use errors.Is (sentinels may arrive wrapped) (sentinelcmp)"},
			wantStderr: "repolint: 1 finding(s) across 1 package(s)",
		},
		{
			name:       "suppressed only",
			files:      map[string]string{"b.go": suppressed},
			wantCode:   0,
			wantStderr: "repolint: clean (1 suppressed by lint:ignore; rerun with -suppressed to view)",
		},
		{
			name:       "show suppressed",
			files:      map[string]string{"b.go": suppressed},
			args:       []string{"-suppressed", "./..."},
			wantCode:   0,
			wantStdout: []string{"b.go:6:36: io.EOF compared with ==: use errors.Is (sentinels may arrive wrapped) (sentinelcmp) [suppressed]"},
		},
		{
			name:     "unknown flag",
			files:    map[string]string{"a.go": finding},
			args:     []string{"-fix", "./..."},
			wantCode: 2,
		},
		{
			name:       "missing package",
			files:      map[string]string{"a.go": finding},
			args:       []string{"./nosuchdir"},
			wantCode:   2,
			wantStderr: "nosuchdir",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tmpModule(t, c.files)
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.wantCode {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.wantCode, stdout.String(), stderr.String())
			}
			var lines []string
			if out := strings.TrimSpace(stdout.String()); out != "" {
				lines = strings.Split(out, "\n")
			}
			if len(lines) != len(c.wantStdout) {
				t.Fatalf("stdout has %d line(s), want %d:\n%s", len(lines), len(c.wantStdout), stdout.String())
			}
			for i, want := range c.wantStdout {
				if !strings.HasSuffix(lines[i], want) {
					t.Errorf("stdout line %d = %q, want suffix %q", i, lines[i], want)
				}
			}
			if !strings.Contains(stderr.String(), c.wantStderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), c.wantStderr)
			}
		})
	}
}
