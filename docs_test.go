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

// repoDecls maps every non-main package of the repository, by name, to
// the names it declares: its top-level identifiers, Type.Member for each
// method, struct field and interface method, and "Type." for each type.
func repoDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						names[spec.Name.Name+"."] = true
						addMembers(names, spec.Name.Name, spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// addMembers declares typ's struct fields or interface methods as
// Type.Member.
func addMembers(names map[string]bool, typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		fields = expr.Fields
	case *ast.InterfaceType:
		fields = expr.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, id := range f.Names {
			names[typ+"."+id.Name] = true
		}
		if len(f.Names) == 0 { // embedded: promoted under its type's name
			embedded := f.Type
			if star, ok := embedded.(*ast.StarExpr); ok {
				embedded = star.X
			}
			if sel, ok := embedded.(*ast.SelectorExpr); ok {
				names[typ+"."+sel.Sel.Name] = true
			} else if id, ok := embedded.(*ast.Ident); ok {
				names[typ+"."+id.Name] = true
			}
		}
	}
}

var (
	// fence is a fenced code block; only inline code spans are checked.
	fence    = regexp.MustCompile("(?s)```.*?```")
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// qualified is pkg.Name, pkg.Name.Member or Type.Member, not part of
	// a path or a longer selector.
	qualified = regexp.MustCompile(`(^|[^\w./-])([A-Za-z]\w*)\.(\w+)(\.\w+)?`)
)

// root is the package of the repository's root directory, whose types
// the docs name unqualified.
const root = "parsearch"

// docRefs returns every pkg.Name or pkg.Name.Member inside an inline
// code span of doc, where pkg is one of the packages in decls, and every
// Type.Member where Type is a type of the root package. A name with an
// underscore is a metric name and pkg.go a file, not Go identifiers.
func docRefs(doc string, decls map[string]map[string]bool) (pkgs, names []string) {
	for _, span := range codeSpan.FindAllString(fence.ReplaceAllString(doc, ""), -1) {
		for _, m := range qualified.FindAllStringSubmatch(span, -1) {
			pkg, name, member := m[2], m[3], strings.TrimPrefix(m[4], ".")
			if decls[pkg] == nil && name != "go" && decls[root][pkg+"."] {
				pkg, name, member = root, pkg, name
			}
			if decls[pkg] == nil || name == "go" || strings.Contains(name+member, "_") {
				continue
			}
			if member != "" {
				name += "." + member
			}
			pkgs, names = append(pkgs, pkg), append(names, name)
		}
	}
	return pkgs, names
}

// TestDocsNameRealDeclarations: every Go identifier README.md and
// DESIGN.md name with its package — `pkg.Name` or `pkg.Name.Member` in
// a code span — or with a type of the root package — `Type.Member` — is
// declared there, so a paragraph about a renamed or deleted API fails
// the build instead of going stale.
func TestDocsNameRealDeclarations(t *testing.T) {
	decls := repoDecls(t)
	for _, file := range []string{"README.md", "DESIGN.md"} {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, names := docRefs(string(doc), decls)
		if len(names) == 0 {
			t.Fatalf("%s: no package-qualified names found — the scan is broken", file)
		}
		t.Logf("%s: %d package-qualified names", file, len(names))
		for i, name := range names {
			if !decls[pkgs[i]][name] {
				t.Errorf("%s: `%s.%s` names no declaration of package %s", file, pkgs[i], name, pkgs[i])
			}
		}
	}
}

// TestDocsScanCatchesStaleNames: the scan above flags a name that is
// not declared, and resolves the forms it must accept.
func TestDocsScanCatchesStaleNames(t *testing.T) {
	decls := repoDecls(t)
	doc := "`knn.Browser`, `knn.Search.Run`, `xtree.Tree.Freeze`, `parsearch.Options{Dim: 2}`, " +
		"`xtree.Tree.Close`, `coord.phase1_share`, `coord/server.go`, `parsearch.go`, `ix.mu.RLock`, " +
		"`Index.KNN(q, k)`, `Index.mu`, `version.live`, `Options.Dim`, `Options.LSH`, `query.go`"
	pkgs, names := docRefs(doc, decls)
	var stale []string
	for i, name := range names {
		if !decls[pkgs[i]][name] {
			stale = append(stale, pkgs[i]+"."+name)
		}
	}
	want := []string{"knn.Browser", "xtree.Tree.Close", "parsearch.Index.mu", "parsearch.Options.LSH"}
	if strings.Join(stale, " ") != strings.Join(want, " ") || len(names) != 10 {
		t.Fatalf("scanned %v, flagged %v; want 10 names with only %v stale", names, stale, want)
	}
}
