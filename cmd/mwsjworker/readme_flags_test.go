package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeDocumentsEveryFlag takes the flag names from the command's
// own -h output and requires each to appear in README.md, so a flag
// cannot be added (or kept) without its line of documentation.
func TestReadmeDocumentsEveryFlag(t *testing.T) {
	var usage strings.Builder
	if err := run([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(usage.String(), -1)
	if len(names) == 0 {
		t.Fatalf("no flags found in the usage text:\n%s", usage.String())
	}
	for _, m := range names {
		mention := regexp.MustCompile(`(^|[^a-z0-9-])-` + m[1] + `([^a-z0-9-]|$)`)
		if !mention.Match(readme) {
			t.Errorf("README.md does not mention -%s", m[1])
		}
	}
}
