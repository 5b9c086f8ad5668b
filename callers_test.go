package muaa_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keep lists the declarations that stand without a caller outside tests, one
// reason each. An entry names a package ("internal/lp"), a file
// ("internal/geo/kdtree.go") or a declaration
// ("internal/model.Problem.Efficiency"), by its path in the module; what a
// kept declaration uses counts as reached. An entry that covers no
// declaration left without a caller, or none at all, fails the test.
var keep = map[string]string{
	"muaa": "the public facade: the module's API for library users",

	"internal/reduction":     "paper side: the NP-hardness reduction (Theorem 1)",
	"internal/cf":            "paper side: the collaborative-filtering tag estimator",
	"internal/mobility":      "paper side: moving customers and their safe regions",
	"internal/persist":       "paper side: problems, assignments and check-in datasets as JSON",
	"internal/simulate":      "paper side: the multi-day simulation behind Section IV-C's tuning of g",
	"internal/lp":            "paper side: the LP relaxation's upper bound",
	"internal/knapsack":      "paper side: Greedy, FPTAS, Exact and Knapsack01",
	"internal/geo/kdtree.go": "paper side: the k-d tree ablation A8 races the grid against, whole with its kNN query",
	"internal/checkin":       "paper side: the check-in corpus generator",
	"internal/stats":         "paper side: the generators' statistics",
	"internal/taxonomy":      "paper side: the tag taxonomy generator",

	"internal/workload.Taxonomized":     "paper side: the taxonomy-driven workload",
	"internal/model.Problem.Efficiency": "the paper's γ_ijk = λ_ijk / c_k, on which O-AFA's threshold admits",
	"internal/broker.API.Routes":        "cmd/muaa-serve's doc tests read the route table through it",
}

// TestEveryDeclarationHasACaller type-checks every non-test package of the
// module and of bench/ and fails on each function, method or type outside
// bench/ that nothing reaches but its own declaration. Reached is what the
// roots use, transitively: every main and init function, the package-level
// variables of each package a command links, every declaration in bench/
// (its uses count; its own declarations are never reported) and what keep
// names. A method that gives its type an interface declared in the module or
// in a package it imports (fmt.Stringer, json.Marshaler, slog.Handler, …) is
// reached with its type: it is called through that interface.
func TestEveryDeclarationHasACaller(t *testing.T) {
	s := loadScan(t)
	reached := s.reach(true)
	for _, d := range s.decls {
		if !reached[d.obj] && !d.bench && d.kept == "" {
			t.Errorf("no caller outside tests: %s", d)
		}
	}
	bare := s.reach(false)
	covered := make(map[string]bool)
	for _, d := range s.decls {
		if d.kept != "" && !bare[d.obj] {
			covered[d.kept] = true
		}
	}
	for e := range keep {
		if !covered[e] {
			t.Errorf("keep-list entry %q is stale: it covers no declaration left without a caller", e)
		}
	}
	t.Logf("%d declarations in %d packages", len(s.decls), s.pkgs)
}

// decl is one package-level function, method or type.
type decl struct {
	obj   types.Object
	pkg   string // path in the module; "muaa" for the root
	name  string // Name, or Recv.Name for a method
	pos   string // file:line in the module
	bench bool
	kept  string // the keep entry covering it, if any
}

func (d *decl) String() string { return d.pkg + "." + d.name + " (" + d.pos + ")" }

// scan is the module's use graph: edges from each package-level object to
// the module objects its declaration uses.
type scan struct {
	decls []*decl
	edges map[types.Object][]types.Object
	roots []types.Object
	pkgs  int
}

// reach returns the objects reachable from the roots, from bench/'s
// declarations and, with kept, from every kept declaration.
func (s *scan) reach(kept bool) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	var stack []types.Object
	push := func(o types.Object) {
		if !seen[o] {
			seen[o] = true
			stack = append(stack, o)
		}
	}
	for _, o := range s.roots {
		push(o)
	}
	for _, d := range s.decls {
		if d.bench || kept && d.kept != "" {
			push(d.obj)
		}
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range s.edges[o] {
			push(u)
		}
	}
	return seen
}

// listed is the part of `go list -json` the scan reads.
type listed struct {
	ImportPath, Name, Dir, Export string
	GoFiles, Deps                 []string
	Standard                      bool
}

// loadScan lists the packages of bench/ and of the module from bench/ (whose
// module replaces muaa with the repository root), imports the standard
// library from its export data and type-checks the module's packages from
// source, dependencies first, as `go list -deps` orders them.
func loadScan(t *testing.T) *scan {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Deps,Standard", "./...", "muaa/...")
	cmd.Dir = filepath.Join(root, "bench")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}

	export := make(map[string]string)
	linked := make(map[string]bool)
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
		if p.Name == "main" && !p.Standard {
			linked[p.ImportPath] = true
			for _, d := range p.Deps {
				linked[d] = true
			}
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(export[path])
	})
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	s := &scan{edges: make(map[types.Object][]types.Object)}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []*types.TypeName
	for _, p := range pkgs {
		if p.Standard {
			pkg, err := std.Import(p.ImportPath)
			if err != nil {
				t.Fatal(err)
			}
			ifaces = append(ifaces, scopeInterfaces(pkg)...)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		s.pkgs++
		ifaces = append(ifaces, scopeInterfaces(pkg)...)

		rel := strings.TrimPrefix(p.ImportPath, "muaa/")
		bench := rel == "bench" || strings.HasPrefix(rel, "bench/")
		// uses returns the module objects n refers to, generic instances
		// folded onto their origin, and collects the interface literals it
		// spells.
		uses := func(n ast.Node) []types.Object {
			var objs []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					if it, ok := info.TypeOf(n).(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				case *ast.Ident:
					if o := moduleObject(info.Uses[n]); o != nil {
						objs = append(objs, o)
					}
				}
				return true
			})
			return objs
		}
		add := func(obj types.Object, name string, at token.Pos) {
			pos := fset.Position(at)
			file, _ := filepath.Rel(root, pos.Filename)
			d := &decl{obj: obj, pkg: rel, name: name, pos: filepath.ToSlash(file) + ":" + strconv.Itoa(pos.Line), bench: bench}
			for _, e := range []string{filepath.ToSlash(file), rel, rel + "." + name} {
				if _, ok := keep[e]; ok {
					d.kept = e
				}
			}
			s.decls = append(s.decls, d)
		}
		for _, f := range files {
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[dl.Name].(*types.Func)
					// A receiver names its type but does not reach it: a
					// method is reached through a value of a type already
					// reached.
					s.edges[fn] = append(uses(dl.Type), uses(dl.Body)...)
					name := dl.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						name = receiverName(recv.Type()) + "." + name
					} else if name == "init" || name == "main" && p.Name == "main" {
						s.roots = append(s.roots, fn)
						continue
					}
					add(fn, name, dl.Name.Pos())
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							tn := info.Defs[spec.Name].(*types.TypeName)
							s.edges[tn] = uses(spec)
							named = append(named, tn)
							add(tn, spec.Name.Name, spec.Name.Pos())
						case *ast.ValueSpec:
							u := uses(spec)
							for _, id := range spec.Names {
								if o := info.Defs[id]; o != nil {
									s.edges[o] = u
								}
							}
							if linked[p.ImportPath] && len(spec.Values) > 0 {
								s.roots = append(s.roots, u...)
							}
						}
					}
				}
			}
		}
	}

	// A type reaches each of its methods, promoted ones included, that an
	// interface it implements names.
	byMethod := make(map[string][]*types.Interface)
	for _, it := range ifaces {
		if !it.IsMethodSet() {
			continue
		}
		for i := range it.NumMethods() {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	for _, tn := range named {
		typ, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(typ) {
			continue
		}
		generic := typ.TypeParams().Len() > 0
		ptr := types.NewMethodSet(types.NewPointer(typ))
		for i := range ptr.Len() {
			m := ptr.At(i).Obj().(*types.Func)
			for _, it := range byMethod[m.Name()] {
				// A generic type is not checked against the interface: a name
				// match alone reaches the method.
				if generic || types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it) {
					s.edges[tn] = append(s.edges[tn], m.Origin())
					break
				}
			}
		}
	}
	sort.Slice(s.decls, func(i, j int) bool { return s.decls[i].String() < s.decls[j].String() })
	return s
}

// moduleObject returns o, folded onto its generic origin, when o is a
// package-level object or a method declared in the module, else nil.
func moduleObject(o types.Object) types.Object {
	if o == nil || o.Pkg() == nil {
		return nil
	}
	if p := o.Pkg().Path(); p != "muaa" && !strings.HasPrefix(p, "muaa/") {
		return nil
	}
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		if o.Parent() == o.Pkg().Scope() {
			return o
		}
	case *types.TypeName, *types.Const:
		if o.Parent() == o.Pkg().Scope() {
			return o
		}
	}
	return nil
}

// scopeInterfaces returns the interfaces pkg declares at package level.
func scopeInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			out = append(out, it)
		}
	}
	return out
}

// receiverName is the name of a method's receiver type, pointer or not.
func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
