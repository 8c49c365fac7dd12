package snap1_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// exportsKept lists the exported identifiers of internal/ that nothing
// outside the test files names, with the reason each one stays exported.
// A key is the package directory, then the name, with a method's receiver
// type ahead of it: "internal/rules.Table.Len".
var exportsKept = map[string]string{
	"internal/engine.Engine.SubmitSource":             "the engine's source-text door, public as snap1.Engine's",
	"internal/experiments.Fig6Result.PropagateShares": "Fig. 6's headline shares, which the figure tests hold and bench_test.go reports",
	"internal/experiments.Fig18Result.PropagateRatio": "Fig. 18's headline ratio, which the figure tests hold and bench_test.go reports",
	"internal/isa.Fused.MarkerOf":                     "the fused plane map machine's fusion differential reads; goes with fusion (ROADMAP item 1a)",
	"internal/isa.Program.CollectColor":               tableII,
	"internal/isa.Program.CollectRelation":            tableII,
	"internal/isa.Program.Func":                       tableII,
	"internal/isa.Program.MarkerSetColor":             tableII,
	"internal/isa.Program.SearchRelation":             tableII,
	"internal/kbfile.Write":                           "the text format's writer beside Parse; FuzzParse round-trips through it",
	"internal/kbgen.MustGenerate":                     "the generated-network fixture of the kbgen, baseline and inherit tests",
	"internal/machine.Machine.ClusterOf":              "the placement probe the engine's writer tests compare replicas by",
	"internal/machine.Machine.MarkerValue":            "the register probe the root and machine tests read answers by",
	"internal/perfmon.Collector.Drain":                "the monitor FIFO's reader, which machine and engine tests drain (ROADMAP item 2 serves it)",
	"internal/perfmon.EvNone":                         "the zero EventCode, named so a zero Record prints none",
	"internal/semnet.Diff":                            "the KB differential the kbgen and kbfile build tests compare against",
}

// tableII is why isa.Program keeps a builder method per opcode.
const tableII = "a Table II instruction: the builder emits the paper's whole ISA"

// TestExportsHaveCallers fails on an exported identifier of internal/ that
// no non-test file names but its own declaration, unless exportsKept says
// why it stays, and on an entry there that has gained a caller. A
// package-level name counts as named where its package uses it or another
// file selects it through an import; a method, which the parser cannot
// tie to a type, by its name alone, wherever any selector or interface
// names it, so the check errs towards finding a caller.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	used := map[string]bool{}    // "dir.Name" for package-level names
	methods := map[string]bool{} // every selected or interface method name
	walkSource(t, func(path string, fset *token.FileSet, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ip, "snap1/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		own := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string, method bool) {
			own[id] = true
			if strings.HasPrefix(dir, "internal/") && id.IsExported() {
				decls = append(decls, decl{key, id.Name, fset.Position(id.Pos()).String(), method})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name, dir+"."+d.Name.Name, false)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					declare(d.Name, dir+"."+id.Name+"."+d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						declare(sp.Name, dir+"."+sp.Name.Name, false)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							declare(id, dir+"."+id.Name, false)
						}
					}
				}
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[id.Name]; ok {
						used[pkg+"."+n.Sel.Name] = true
						return false
					}
				}
				methods[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						methods[id.Name] = true
					}
				}
			case *ast.Ident:
				if !own[n] {
					used[dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	})
	var unused []string
	kept := map[string]bool{}
	for _, d := range decls {
		if used[d.key] || d.method && (methods[d.name] || stdInterfaceMethods[d.name]) {
			continue
		}
		if _, ok := exportsKept[d.key]; ok {
			kept[d.key] = true
		} else {
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported and named by no non-test file: %s", u)
	}
	for key := range exportsKept {
		if !kept[key] {
			t.Errorf("exportsKept lists %s, which is gone or has a caller now", key)
		}
	}
}

// stdInterfaceMethods are methods the standard library calls through its
// interfaces, so no selector in the tree need name them.
var stdInterfaceMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true}

var fusedRE = regexp.MustCompile(`\(([^()]+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\b`)

// TestNoFusedMultiplyAdd holds the module's float expressions to one
// rounding per operation on every architecture: Go lets a compiler fuse
// x*y + z into one instruction unless a conversion rounds the product,
// and on arm64 (ppc64le, riscv64 and s390x alike) that moves generated
// link weights and fault draws off the amd64 bits. It cross-compiles the
// non-test packages for arm64 with -S and fails on any fused
// multiply-add. Cold, the standard library's arm64 build takes tens of
// seconds, so -short skips it.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for arm64")
	}
	cmd := exec.Command("go", "build", "-gcflags=-S", "./...")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%.2000s", err, out)
	}
	for _, m := range fusedRE.FindAllSubmatch(out, -1) {
		t.Errorf("%s: %s (round the product with a conversion)", m[1], m[2])
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
