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

// The prose files whose test names, script and program paths must stay
// live.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	// A cited test: Test/Benchmark/Fuzz, a capital, then identifier
	// characters and {a,b} alternations, optionally ending in a * wildcard.
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_](?:[A-Za-z0-9_]|\{[A-Za-z0-9_,]*\})*\*?`)
	// A cited script or program directory, with the same alternations.
	citedPaths = []*regexp.Regexp{
		regexp.MustCompile(`\bscripts/(?:[A-Za-z0-9_.-]|\{[A-Za-z0-9_,.-]*\})+\.sh\b`),
		regexp.MustCompile(`\b(?:cmd|examples)/(?:[A-Za-z0-9_-]|\{[A-Za-z0-9_,-]*\})+`),
	}
	// A table row of a paper claim or an ablation (E1, E1b, A3, …), and a
	// benchmark it cites.
	claimRow       = regexp.MustCompile(`(?m)^\| *[EA][0-9]+[a-z]? *\|.*$`)
	citedBenchmark = regexp.MustCompile(`\bBenchmark[A-Za-z0-9_]+`)
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

// staleReferences lists the test names, script paths and program
// directories text cites that nothing declares (tests) or that do not
// exist (exists, for paths). A name ending in * matches any declared name
// it prefixes.
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
	for _, re := range citedPaths {
		for _, ref := range re.FindAllString(text, -1) {
			for _, path := range expandBraces(ref) {
				if !exists(path) {
					stale = append(stale, path)
				}
			}
		}
	}
	return stale
}

// unregenerated lists the claim rows of text that do not name exactly one
// benchmark, the row's one regenerator.
func unregenerated(text string) []string {
	var rows []string
	for _, row := range claimRow.FindAllString(text, -1) {
		names := citedBenchmark.FindAllString(row, -1)
		slices.Sort(names)
		if len(slices.Compact(names)) != 1 {
			rows = append(rows, strings.TrimSpace(strings.SplitN(row, "|", 3)[1]))
		}
	}
	return rows
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

// TestDocReferences: every test name, script path and cmd/ or examples/
// program the README, DESIGN, EXPERIMENTS and the verify recipe cite
// exists — a renamed or deleted one must be renamed in the prose too, or
// marked "retired (was …)" — and every claim or ablation row of their
// tables names exactly one regenerating benchmark.
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
		for _, id := range unregenerated(string(b)) {
			t.Errorf("%s: row %s does not name exactly one regenerating benchmark", doc, id)
		}
	}
}

// TestStaleReferencesRules pins the matcher on literal text.
func TestStaleReferencesRules(t *testing.T) {
	tests := map[string]bool{"TestAlpha": true, "TestBetaOne": true, "TestBetaTwo": true, "BenchmarkGamma": true}
	paths := func(p string) bool {
		return p == "scripts/a.sh" || p == "scripts/b.sh" || p == "cmd/tool" || p == "examples/demo"
	}
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
		{"`go run ./cmd/tool -json` and `examples/demo`", ""},
		{"`cmd/gone -exp e1` and examples/{demo,old}", "cmd/gone examples/old"},
		{"retired (was `cmd/gone -exp e1`, `examples/old`) beside `cmd/tool`", ""},
	} {
		if got := strings.Join(staleReferences(tc.text, tests, paths), " "); got != tc.want {
			t.Errorf("%q: stale %q, want %q", tc.text, got, tc.want)
		}
	}
	for _, tc := range []struct {
		text string
		want string
	}{
		{"| E1 | claim | `BenchmarkE1Strong` |\n| A2 | q | `BenchmarkA2/sub` and `BenchmarkA2` |", ""},
		{"| E1b | claim | `BenchmarkE1b`, `cmd/tool -exp e1b` |", ""},
		{"| E7 | claim | `BenchmarkE7`, `BenchmarkE7Other` |", "E7"},
		{"| A3 | question | measured |", "A3"},
		{"| D1 | `TestA` | `BenchmarkX`, `BenchmarkY` |\n| ε | x |", ""},
	} {
		if got := strings.Join(unregenerated(tc.text), " "); got != tc.want {
			t.Errorf("%q: unregenerated %q, want %q", tc.text, got, tc.want)
		}
	}
}
