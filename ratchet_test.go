package snap1_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Dead surface that only an outside reader keeps alive, counted over every
// non-test Go file. A change that removes some lowers its ceiling here; a
// change that must add some raises it and names, in CHANGES.md, the reader
// that forces it.
const (
	deprecatedCeiling = 4 // "// Deprecated:" comments
	alwaysZeroCeiling = 5 // exported Stats fields documented as always 0
)

// walkSource parses every non-test Go file of the tree, comments
// included, and hands each to visit.
func walkSource(t *testing.T, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		visit(path, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadSurfaceRatchet fails when the tree holds more dead surface than
// the ceilings above allow.
func TestDeadSurfaceRatchet(t *testing.T) {
	var deprecated, alwaysZero []string
	walkSource(t, func(path string, fset *token.FileSet, f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "// Deprecated:") {
					deprecated = append(deprecated, fset.Position(c.Pos()).String())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Stats" {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, name := range alwaysZeroFields(st) {
					alwaysZero = append(alwaysZero, fset.Position(ts.Pos()).String()+" "+name)
				}
			}
			return false
		})
	})
	t.Logf("%d Deprecated comments: %v", len(deprecated), deprecated)
	t.Logf("%d Stats fields documented as always 0: %v", len(alwaysZero), alwaysZero)
	if len(deprecated) > deprecatedCeiling {
		t.Errorf("%d Deprecated comments, ceiling %d", len(deprecated), deprecatedCeiling)
	}
	if len(alwaysZero) > alwaysZeroCeiling {
		t.Errorf("%d Stats fields documented as always 0, ceiling %d", len(alwaysZero), alwaysZeroCeiling)
	}
}

// TestSurfaceCounts reports the size of the tree and of its public
// surface, and asserts nothing: non-test Go lines per package, and the
// exported package-level names and methods of snap.go and
// internal/engine. Run it with
//
//	go test -run TestSurfaceCounts -v .
func TestSurfaceCounts(t *testing.T) {
	lines := map[string]int{}
	exported := map[string]int{}
	walkSource(t, func(path string, fset *token.FileSet, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		lines[dir] += fset.File(f.Pos()).LineCount()
		if path == "snap.go" || dir == "internal/engine" {
			exported[dir] += exportedNames(f)
		}
	})
	dirs := make([]string, 0, len(lines))
	total := 0
	for dir, n := range lines {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		t.Logf("%-28s %6d lines", dir, lines[dir])
	}
	t.Logf("%-28s %6d lines", "total", total)
	t.Logf("exported names: snap.go %d, internal/engine %d", exported["."], exported["internal/engine"])
}

// exportedNames counts f's exported package-level functions, types,
// variables and constants, and its exported methods.
func exportedNames(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						if id.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

var alwaysZeroRE = regexp.MustCompile(`(?i)\balways (0|zero)\b`)

// alwaysZeroFields returns the exported fields of st that a sentence of
// the struct's field comments names and calls always 0.
func alwaysZeroFields(st *ast.StructType) []string {
	var sentences []string
	for _, fld := range st.Fields.List {
		for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
			if cg != nil {
				text := strings.Join(strings.Fields(cg.Text()), " ")
				sentences = append(sentences, strings.Split(text, ". ")...)
			}
		}
	}
	var out []string
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if !id.IsExported() {
				continue
			}
			named := regexp.MustCompile(`\b` + id.Name + `\b`)
			for _, s := range sentences {
				if alwaysZeroRE.MatchString(s) && named.MatchString(s) {
					out = append(out, id.Name)
					break
				}
			}
		}
	}
	return out
}
