package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleTable(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-table", "table6", "-unit", "250", "-q"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Table6", "d=100", "d=500", "c-rep-l", "tuples"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunMarkdownToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.md")
	var out strings.Builder
	err := run([]string{"-table", "table6", "-unit", "250", "-q", "-md", "-o", path}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "| d=100 |") {
		t.Errorf("markdown file missing table rows:\n%s", data)
	}
	if string(data) != out.String() {
		t.Error("file and stdout output differ")
	}
	// Markdown rows have consistent column counts.
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| d=") {
			if got := strings.Count(line, "|"); got != 7 { // 6 columns
				t.Errorf("row %q has %d pipes", line, got)
			}
		}
	}
}

func TestRunTraceDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	var out strings.Builder
	err := run([]string{"-table", "table6", "-unit", "250", "-q", "-tracedir", dir}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Table 6: 5 sweep points × 2 methods × {json, txt}.
	if len(entries) != 20 {
		t.Fatalf("trace dir has %d files, want 20", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "table6-d-100-c-rep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "profile c-rep") || !strings.Contains(string(data), "shuffle") {
		t.Errorf("profile text incomplete:\n%s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "table99"}, &out, io.Discard); err == nil {
		t.Error("unknown table must fail")
	}
	if err := run([]string{"-badflag"}, &out, io.Discard); err == nil {
		t.Error("bad flag must fail")
	}
}
