package hfxmd_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The prose files whose test names and script paths must stay live.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// A cited test: Test/Benchmark/Fuzz, a capital, then identifier
	// characters and {a,b} alternations, optionally ending in a * wildcard.
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_](?:[A-Za-z0-9_]|\{[A-Za-z0-9_,]*\})*\*?`)
	// A cited script, with the same alternations.
	citedScript = regexp.MustCompile(`\bscripts/(?:[A-Za-z0-9_.-]|\{[A-Za-z0-9_,.-]*\})+\.sh\b`)
	// Text that names what is gone on purpose.
	retired  = regexp.MustCompile(`retired \(was [^)]*\)`)
	declared = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// expandBraces expands every {a,b} alternation of s.
func expandBraces(s string) []string {
	i := strings.IndexByte(s, '{')
	if i < 0 {
		return []string{s}
	}
	j := i + strings.IndexByte(s[i:], '}')
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}

// staleReferences lists the test names and script paths text cites that
// nothing declares (tests) or that do not exist (exists, for scripts). A
// name ending in * matches any declared name it prefixes.
func staleReferences(text string, tests map[string]bool, exists func(path string) bool) []string {
	text = retired.ReplaceAllString(text, "")
	var stale []string
	for _, ref := range citedTest.FindAllString(text, -1) {
		for _, name := range expandBraces(ref) {
			prefix, wild := strings.CutSuffix(name, "*")
			found := tests[prefix]
			for t := range tests {
				found = found || wild && strings.HasPrefix(t, prefix)
			}
			if !found {
				stale = append(stale, name)
			}
		}
	}
	for _, ref := range citedScript.FindAllString(text, -1) {
		for _, path := range expandBraces(ref) {
			if !exists(path) {
				stale = append(stale, path)
			}
		}
	}
	return stale
}

// declaredTests collects every Test, Benchmark and Fuzz function of the
// module's _test.go files.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range declared.FindAllSubmatch(b, -1) {
			tests[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestDocReferences: every test name and script path the README, DESIGN,
// EXPERIMENTS and the verify recipe cite exists — a renamed or deleted test
// must be renamed in the prose too, or marked "retired (was …)".
func TestDocReferences(t *testing.T) {
	tests := declaredTests(t)
	for _, doc := range citingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		stale := staleReferences(string(b), tests, fileExists)
		slices.Sort(stale)
		for _, ref := range slices.Compact(stale) {
			t.Errorf("%s cites %s, which does not exist", doc, ref)
		}
	}
}

// TestStaleReferencesRules pins the matcher on literal text.
func TestStaleReferencesRules(t *testing.T) {
	tests := map[string]bool{"TestAlpha": true, "TestBetaOne": true, "TestBetaTwo": true, "BenchmarkGamma": true}
	scripts := func(p string) bool { return p == "scripts/a.sh" || p == "scripts/b.sh" }
	for _, tc := range []struct {
		text string
		want string
	}{
		{"`TestAlpha` and `BenchmarkGamma/sub`", ""},
		{"`TestAlpah`", "TestAlpah"},
		{"`TestBeta{One,Two}`", ""},
		{"`TestBeta{One,Three}`", "TestBetaThree"},
		{"`TestBeta*`", ""},
		{"`TestDelta*`", "TestDelta*"},
		{"`scripts/{a,b}.sh`", ""},
		{"`scripts/{a,c}.sh`", "scripts/c.sh"},
		{"W1 retired (was `TestGone`, `scripts/gone.sh`) and `TestAlpha`", ""},
		{"Tests, Benchmarks and Fuzzing in prose", ""},
	} {
		if got := strings.Join(staleReferences(tc.text, tests, scripts), " "); got != tc.want {
			t.Errorf("%q: stale %q, want %q", tc.text, got, tc.want)
		}
	}
}
