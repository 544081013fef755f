package parsearch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// runFlag is a go test command line's -run pattern.
	runFlag = regexp.MustCompile(`go test .*-run '([^']*)'`)
	// testFunc names what go test runs: a test, fuzz or benchmark function.
	testFunc = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
)

// testFuncs returns the test, fuzz and benchmark functions declared in
// the packages a go test command line names: ".", "./dir", or
// "./dir/..." for a directory tree.
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		root, tree := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				if err == nil && path != root && !tree {
					return filepath.SkipDir
				}
				return err
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// staleRunNames returns every alternative of a -run pattern in the
// workflow that matches no function of the packages its line runs —
// which go test passes silently. '^$' (run no test, only benchmarks or
// fuzzing) is meant to match nothing.
func staleRunNames(t *testing.T, workflow string) (stale []string, checked int) {
	t.Helper()
	for i, line := range strings.Split(workflow, "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		var pkgs []string
		for _, arg := range strings.Fields(line[strings.Index(line, "go test"):]) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
			}
		}
		funcs := testFuncs(t, pkgs)
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			checked++
			found := false
			for _, name := range funcs {
				found = found || re.MatchString(name)
			}
			if !found {
				stale = append(stale, alt)
			}
		}
	}
	return stale, checked
}

// TestCIRunPatternsNameTests: every alternative of every -run pattern in
// the CI workflow names a test, fuzz or benchmark function of a package
// its command runs, so a renamed or deleted test cannot silently drop
// out of a battery.
func TestCIRunPatternsNameTests(t *testing.T) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	stale, checked := staleRunNames(t, string(workflow))
	if checked == 0 {
		t.Fatal("no -run pattern found — the scan is broken")
	}
	for _, alt := range stale {
		t.Errorf("ci.yml: -run alternative %q matches no test of the packages its line runs", alt)
	}
}

// TestCIRunCheckCatchesStaleName: the check flags a name no package
// declares, and a name declared only in a package the line does not run.
func TestCIRunCheckCatchesStaleName(t *testing.T) {
	workflow := "  go test -race -run 'TestFrozenVersions|TestNoSuchTest|TestBatchIsAtomicToQueries' ./internal/xtree\n" +
		"  go test -run '^$' -bench 'Build' .\n"
	stale, checked := staleRunNames(t, workflow)
	if want := "TestNoSuchTest TestBatchIsAtomicToQueries"; strings.Join(stale, " ") != want || checked != 3 {
		t.Fatalf("checked %d alternatives, flagged %v; want 3 with %s stale", checked, stale, want)
	}
}
