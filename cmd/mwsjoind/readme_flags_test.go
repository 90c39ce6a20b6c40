package main

import (
	"errors"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeDocumentsEveryFlag holds README.md and the command's -h to
// each other both ways: every flag -h lists is mentioned in README, and
// every flag on a README line invoking the command (a trailing backslash
// continues the line) is one -h lists.
func TestReadmeDocumentsEveryFlag(t *testing.T) {
	var usage strings.Builder
	if err := run([]string{"-h"}, &usage, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		flags[m[1]] = true
		if !regexp.MustCompile(`(^|[^a-z0-9-])-` + m[1] + `([^a-z0-9-]|$)`).Match(readme) {
			t.Errorf("README.md does not mention -%s", m[1])
		}
	}
	if len(flags) == 0 {
		t.Fatalf("no flags found in the usage text:\n%s", usage.String())
	}
	// The command word, then its arguments up to a comment or the end of
	// an inline code span.
	invocation := regexp.MustCompile("(?:^|[\\s/`$])mwsjoind(\\s[^`#]*)")
	flagWord := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	for _, line := range strings.Split(strings.ReplaceAll(string(readme), "\\\n", " "), "\n") {
		for _, inv := range invocation.FindAllStringSubmatch(line, -1) {
			for _, f := range flagWord.FindAllStringSubmatch(inv[1], -1) {
				if !flags[f[1]] {
					t.Errorf("README.md passes mwsjoind -%s, which it does not have: %s", f[1], strings.TrimSpace(line))
				}
			}
		}
	}
}
