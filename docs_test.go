package hfxmd_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
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
	// A code span; in it a -run or -bench pattern, and an identifier (with
	// {a,b} alternations) after an optional lower-case package qualifier;
	// and a capitalised hump of a CamelCase identifier.
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	flagPattern = regexp.MustCompile(`-(?:test\.)?(?:run|bench)[ =]('[^']*'|"[^"]*"|[^ '"]+)`)
	spanIdent   = regexp.MustCompile(`(?:\b([a-z][a-z0-9]*)\.)?\b([A-Za-z_](?:[A-Za-z0-9_]|\{[A-Za-z0-9_,]*\})*)`)
	hump        = regexp.MustCompile(`[A-Z][a-z][a-z0-9]*`)
	// Text that names what is gone on purpose.
	retired  = regexp.MustCompile(`retired \(was [^)]*\)`)
	declared = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// A Markdown heading, a DESIGN.md section of one package, and a
	// citation of a DESIGN.md section: by quoted name (a line break may
	// separate the two) or by link anchor.
	heading        = regexp.MustCompile(`(?m)^#+ +(.+?) *$`)
	packageSection = regexp.MustCompile(`(?m)^## +(internal/\S+) *$`)
	citedSection   = regexp.MustCompile(`DESIGN\.md,?\s+"([^"]+)"`)
	linkedSection  = regexp.MustCompile(`DESIGN\.md#([^)\s]+)`)
)

// designMaxLines bounds DESIGN.md.
const designMaxLines = 1000

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

// camelCase reports whether name is capitalised and has at least two
// humps (SchwarzNorm, ERIShellDeriv), unlike a word, an acronym, a formula
// or a JSON key (Pairs, NaN, H2O2, finalStateSha256).
func camelCase(name string) bool {
	return unicode.IsUpper(rune(name[0])) && len(hump.FindAllString(name, 2)) == 2
}

// undeclaredIdents lists the CamelCase identifiers text cites in code
// spans that the module does not declare (idents). A name qualified by a
// package outside the module (sync.WaitGroup) is not checked; a Test,
// Benchmark or Fuzz name is staleReferences' to check; and a CamelCase
// word of a -run or -bench pattern must be part of some declared test name.
func undeclaredIdents(text string, idents, tests, pkgs map[string]bool) []string {
	text = retired.ReplaceAllString(text, "")
	var stale []string
	for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
		span := m[1]
		for _, pm := range flagPattern.FindAllStringSubmatch(span, -1) {
			for _, word := range spanIdent.FindAllStringSubmatch(pm[1], -1) {
				found := !camelCase(word[2])
				for t := range tests {
					found = found || strings.Contains(t, word[2])
				}
				if !found {
					stale = append(stale, word[2])
				}
			}
		}
		span = flagPattern.ReplaceAllString(span, "")
		for _, id := range spanIdent.FindAllStringSubmatch(span, -1) {
			if id[1] != "" && !pkgs[id[1]] || citedTest.MatchString(id[2]) {
				continue
			}
			for _, name := range expandBraces(id[2]) {
				if camelCase(name) && !idents[name] {
					stale = append(stale, name)
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

// designProblems checks DESIGN.md's structure against the module: its
// "## internal/…" sections are exactly the packages of imports (each
// package's module imports), once each, in an order where no package
// imports one whose section comes later; every package section cites at
// least one declared test; and the text has at most maxLines lines.
func designProblems(text string, imports map[string][]string, tests map[string]bool, maxLines int) []string {
	var problems []string
	locs := packageSection.FindAllStringSubmatchIndex(text, -1)
	at := map[string]int{}
	for i, loc := range locs {
		pkg := text[loc[2]:loc[3]]
		if _, dup := at[pkg]; dup {
			problems = append(problems, "duplicate "+pkg)
		}
		at[pkg] = i
		if _, ok := imports[pkg]; !ok {
			problems = append(problems, "extra "+pkg)
		}
		end := len(text)
		if next := strings.Index(text[loc[1]:], "\n## "); next >= 0 {
			end = loc[1] + next
		}
		cites := false
		for _, ref := range citedTest.FindAllString(text[loc[1]:end], -1) {
			for _, name := range expandBraces(ref) {
				cites = cites || tests[name]
			}
		}
		if !cites {
			problems = append(problems, pkg+" cites no test")
		}
	}
	pkgs := make([]string, 0, len(imports))
	for pkg := range imports {
		pkgs = append(pkgs, pkg)
	}
	slices.Sort(pkgs)
	for _, pkg := range pkgs {
		i, ok := at[pkg]
		if !ok {
			problems = append(problems, "missing "+pkg)
			continue
		}
		for _, dep := range imports[pkg] {
			if j, ok := at[dep]; ok && j > i {
				problems = append(problems, pkg+" imports later "+dep)
			}
		}
	}
	if n := strings.Count(strings.TrimSuffix(text, "\n"), "\n") + 1; n > maxLines {
		problems = append(problems, fmt.Sprintf("%d lines > %d", n, maxLines))
	}
	return problems
}

// staleSections lists the DESIGN.md sections text cites, by quoted name
// or by link anchor, that are no heading of design.
func staleSections(text, design string) []string {
	headings, anchors := map[string]bool{}, map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		headings[m[1]], anchors[anchor(m[1])] = true, true
	}
	var stale []string
	for _, m := range citedSection.FindAllStringSubmatch(text, -1) {
		if name := strings.Join(strings.Fields(m[1]), " "); !headings[name] {
			stale = append(stale, strconv.Quote(name))
		}
	}
	for _, m := range linkedSection.FindAllStringSubmatch(text, -1) {
		if !anchors[m[1]] {
			stale = append(stale, "#"+m[1])
		}
	}
	return stale
}

// anchor is the link fragment a Markdown renderer gives a heading:
// lower case, punctuation dropped, spaces turned into hyphens.
func anchor(h string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r == ' ':
			return '-'
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			return unicode.ToLower(r)
		}
		return -1
	}, h)
}

// modulePackages walks internal/ and returns every package directory with
// the module packages its non-test files import, both as module-relative
// paths ("internal/hfx").
func modulePackages(t *testing.T) map[string][]string {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	prefix := strings.Fields(string(mod))[1] + "/" // go.mod opens with "module <path>"
	fset := token.NewFileSet()
	imports := map[string][]string{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		deps := imports[pkg]
		for _, imp := range f.Imports {
			if dep, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), prefix); ok && !slices.Contains(deps, dep) {
				deps = append(deps, dep)
			}
		}
		imports[pkg] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

// declaredIdents collects every name the module's Go files declare:
// functions and methods, types, variables, constants, struct fields and
// interface methods.
func declaredIdents(t *testing.T) map[string]bool {
	t.Helper()
	idents := map[string]bool{}
	add := func(names ...*ast.Ident) {
		for _, n := range names {
			idents[n.Name] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name)
			case *ast.TypeSpec:
				add(n.Name)
			case *ast.ValueSpec:
				add(n.Names...)
			case *ast.Field:
				add(n.Names...)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idents
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
// marked "retired (was …)" — every claim or ablation row of their tables
// names exactly one regenerating benchmark, and every DESIGN.md section
// they cite by name is a heading of it. DESIGN.md itself has one section
// per package of internal/, in dependency order, each citing a test, in at
// most designMaxLines lines.
func TestDocReferences(t *testing.T) {
	tests := declaredTests(t)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	imports := modulePackages(t)
	for _, p := range designProblems(string(design), imports, tests, designMaxLines) {
		t.Errorf("DESIGN.md: %s", p)
	}
	idents, pkgs := declaredIdents(t), map[string]bool{"hfxmd": true}
	for pkg := range imports {
		pkgs[filepath.Base(pkg)] = true
	}
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
		stale = undeclaredIdents(string(b), idents, tests, pkgs)
		slices.Sort(stale)
		for _, name := range slices.Compact(stale) {
			t.Errorf("%s cites %s, which the module does not declare", doc, name)
		}
		for _, id := range unregenerated(string(b)) {
			t.Errorf("%s: row %s does not name exactly one regenerating benchmark", doc, id)
		}
		for _, name := range staleSections(string(b), string(design)) {
			t.Errorf("%s cites DESIGN.md section %s, which does not exist", doc, name)
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
	idents := map[string]bool{"SchwarzNorm": true, "SchwarzMatrix": true, "NewBuilder": true}
	pkgs := map[string]bool{"hfx": true, "integrals": true}
	benches := map[string]bool{"BenchmarkGammaRay": true, "TestAlpha": true}
	for _, tc := range []struct {
		text string
		want string
	}{
		{"`SchwarzNorm`, `Engine.SchwarzMatrix()` and `hfx.NewBuilder(eng, scr, opts)`", ""},
		{"`SchwarzMatrixThreads`, the primitive-pair bounds", "SchwarzMatrixThreads"},
		{"`integrals.SchwarzMatrixThreads(1)` and `Placement.FaultPlan`", "SchwarzMatrixThreads FaultPlan"},
		{"`sync.WaitGroup`, `math.NaN` and `e.GoneName`", ""},
		{"`Schwarz{Norm,Matrix}` and `Schwarz{Norm,Tensor}`", "SchwarzTensor"},
		{"`TestAlpah` and `TestBeta{One,Three}` are staleReferences' to report", ""},
		{"a `NaN`/`Inf` coordinate, `H2O2`, `RunMD`, `finalStateSha256` and `tableFor`", ""},
		{"retired (was `SchwarzMatrixThreads`) beside `SchwarzNorm`", ""},
		{"`go test -run '^$' -bench GammaRay -benchtime 1x .`", ""},
		{"`go test -run AlphaBeta ./x/` and `x.test -test.bench 'GammaRay|DeltaWave'`", "AlphaBeta DeltaWave"},
		{"`-bench E1|E2` and `-run=GammaRay`", ""},
	} {
		if got := strings.Join(undeclaredIdents(tc.text, idents, benches, pkgs), " "); got != tc.want {
			t.Errorf("%q: undeclared %q, want %q", tc.text, got, tc.want)
		}
	}
	imports := map[string][]string{"internal/a": nil, "internal/b": {"internal/a"}}
	for _, tc := range []struct {
		text string
		want string
	}{
		{"# D\n## Preamble\n## internal/a\n`TestAlpha`\n### Sub\n## internal/b\n`TestBeta{One,Two}`\n## cmd\n", ""},
		{"## internal/a\n`TestAlpha`\n", "missing internal/b"},
		{"## internal/b\n`TestAlpha`\n## internal/a\n`TestAlpha`\n", "internal/b imports later internal/a"},
		{"## internal/a\n`TestAlpah`\n## internal/b\n`TestAlpha`\n", "internal/a cites no test"},
		{"## internal/a\n`TestAlpha`\n## internal/b\n## cmd\n`TestAlpha`\n", "internal/b cites no test"},
		{"## internal/a\n`TestAlpha`\n## internal/b\n`TestAlpha`\n## internal/c\n`TestAlpha`\n", "extra internal/c"},
		{"## internal/a\n`TestAlpha`\n## internal/a\n`TestAlpha`\n## internal/b\n`TestAlpha`\n", "duplicate internal/a"},
		{"## internal/a\n`TestAlpha`\n## internal/b\n`TestAlpha`\n\n\n\n\n\n", "9 lines > 8"},
	} {
		if got := strings.Join(designProblems(tc.text, imports, tests, 8), "; "); got != tc.want {
			t.Errorf("%q: design problems %q, want %q", tc.text, got, tc.want)
		}
	}
	design := "# D\n## internal/a\n### Bitwise contract\n## cmd/* and the facade\n"
	for _, tc := range []struct {
		text string
		want string
	}{
		{`see DESIGN.md "internal/a" and DESIGN.md "Bitwise contract"`, ""},
		{"see DESIGN.md\n\"cmd/* and\nthe facade\"", ""},
		{`DESIGN.md, "internal/a"; DESIGN.md "cmd/*"`, `"cmd/*"`},
		{`DESIGN.md "J/K digestion" beside DESIGN.md`, `"J/K digestion"`},
		{"[a](DESIGN.md#internala), [b](DESIGN.md#bitwise-contract) and [c](DESIGN.md#cmd-and-the-facade)", ""},
		{"[b](DESIGN.md#internalb)", "#internalb"},
	} {
		if got := strings.Join(staleSections(tc.text, design), " "); got != tc.want {
			t.Errorf("%q: stale sections %q, want %q", tc.text, got, tc.want)
		}
	}
}
