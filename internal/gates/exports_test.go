package gates

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The packages whose exports must earn a caller: the root package, the one
// way a caller outside the module reaches it, and every package under
// internal/.
const (
	rootPath       = "satori"
	internalPrefix = rootPath + "/internal/"
)

// checkedPath: the package at path must earn its exports a caller.
func checkedPath(path string) bool {
	return path == rootPath || strings.HasPrefix(path, internalPrefix)
}

// A checked package is one type-checked package of the module.
type checked struct {
	types *types.Package
	files []*ast.File
}

// module is the module's non-test code, type-checked from source: its own
// packages through `go list`, the standard library through the "source"
// importer. benchmark/ is a module of its own and is not read.
type module struct {
	fset  *token.FileSet
	dir   string // the module root, absolute
	std   types.ImporterFrom
	list  map[string]listed // import path → its directory and non-test files
	order []string          // import paths in `go list` order
	pkgs  map[string]*checked
	info  *types.Info
}

// protocols are the method sets the standard library finds by an anonymous
// type assertion inside a function body, which the "source" importer does
// not read: errors.Unwrap, Is and As.
const protocols = `package protocols

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

type listed struct {
	dir   string
	files []string
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// loadModule type-checks the module once per test binary.
func loadModule() (*module, error) {
	loadOnce.Do(func() { loaded, loadErr = newModule() })
	return loaded, loadErr
}

func newModule() (*module, error) {
	dir, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list ./...: %w", err)
	}
	// The "source" importer reads the standard library with go/build's
	// default context. Without cgo it type-checks net and os/user from
	// their pure-Go files, the same API, and never runs the C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{
		fset: fset,
		dir:  dir,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		list: map[string]listed{},
		pkgs: map[string]*checked{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},

			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 || f[2] == "" { // a package of test files only
			continue
		}
		m.list[f[0]] = listed{f[1], strings.Fields(f[2])}
		m.order = append(m.order, f[0])
	}
	for _, p := range m.order {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	f, err := parser.ParseFile(fset, "protocols.go", protocols, 0)
	if err != nil {
		return nil, err
	}
	if _, err := m.check("protocols", []*ast.File{f}); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *module) Import(path string) (*types.Package, error) { return m.ImportFrom(path, "", 0) }

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l, ok := m.list[path]
	if !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	if p := m.pkgs[path]; p != nil {
		return p.types, nil
	}
	files, err := m.parse(l, nil)
	if err != nil {
		return nil, err
	}
	p, err := m.check(path, files)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p.types, nil
}

// parse reads a listed package's files, after the extra file if there is one.
func (m *module) parse(l listed, extra *ast.File) ([]*ast.File, error) {
	var files []*ast.File
	if extra != nil {
		files = append(files, extra)
	}
	for _, name := range l.files {
		f, err := parser.ParseFile(m.fset, filepath.Join(l.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (m *module) check(path string, files []*ast.File) (*checked, error) {
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &checked{p, files}, nil
}

// withSnippet type-checks a known-bad file into the module: a file of
// package satori as one more file of the root package, which then stands
// in for the root package as loaded, any other as one more package,
// satori/internal/bad.
func (m *module) withSnippet(src source) ([]*checked, error) {
	f, err := parser.ParseFile(m.fset, src.name, src.text, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	if f.Name.Name != rootPath {
		p, err := m.check(internalPrefix+"bad", []*ast.File{f})
		if err != nil {
			return nil, err
		}
		return append(m.checked(), p), nil
	}
	// The root package's files are parsed afresh, so the second check
	// records its objects against identifiers of its own.
	files, err := m.parse(m.list[rootPath], f)
	if err != nil {
		return nil, err
	}
	p, err := m.check(rootPath, files)
	if err != nil {
		return nil, err
	}
	ps := m.checked()
	for i := range ps {
		if ps[i].types.Path() == rootPath {
			ps[i] = p
		}
	}
	return ps, nil
}

func (m *module) checked() []*checked {
	var ps []*checked
	for _, p := range m.order {
		ps = append(ps, m.pkgs[p])
	}
	return ps
}

// exportShapes reads type-checked packages. Each exported func, type, var
// and const of the root package or a non-main package under internal/, and
// each exported method of a type it declares, is an "export". Each
// reference the packages make to one is a "use", unless it sits in the
// referenced declaration itself, or is a method's receiver type or a
// reference inside a method to that type. A method whose type satisfies an
// interface that declares it (in the module or the standard library) is a
// use too, at "implements I".
func (m *module) exportShapes(pkgs []*checked) []shape {
	var ss []shape
	var methods []*types.Func
	for _, p := range pkgs {
		if !checkedPath(p.types.Path()) || p.types.Name() == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				ss = append(ss, shape{kind: "export", text: exportKey(obj), at: m.pos(obj.Pos())})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				for i := range n.NumMethods() {
					if f := n.Method(i); f.Exported() {
						ss = append(ss, shape{kind: "export", text: exportKey(f), at: m.pos(f.Pos())})
						methods = append(methods, f)
					}
				}
			}
		}
	}

	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				self := m.declares(d)
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := origin(m.info.Uses[id]); obj != nil && !self[obj] && exportable(obj) {
						ss = append(ss, shape{kind: "use", text: exportKey(obj), at: m.pos(id.Pos())})
					}
					return true
				})
			}
		}
	}

	// *T's method set holds T's methods too.
	byName := m.interfaces(pkgs)
	for _, f := range methods {
		t, _ := receiver(f)
		for _, iface := range byName[f.Name()] {
			if types.Implements(types.NewPointer(t), iface.Underlying().(*types.Interface)) {
				ss = append(ss, shape{kind: "use", text: exportKey(f), at: "implements " + iface.String()})
				break
			}
		}
	}
	return ss
}

// declares names what a top-level declaration declares, and for a method
// its receiver's type as well.
func (m *module) declares(d ast.Decl) map[types.Object]bool {
	self := map[types.Object]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := m.info.Defs[d.Name].(*types.Func)
		self[obj] = true
		if t, _ := receiver(obj); t != nil {
			if n, ok := t.(*types.Named); ok {
				self[n.Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				self[m.info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[m.info.Defs[n]] = true
				}
			}
		}
	}
	return self
}

// interfaces indexes by method name every interface the packages mention
// or declare, every exported interface of the standard library packages
// they import, directly or not, and error.
func (m *module) interfaces(pkgs []*checked) map[string][]types.Type {
	byName := map[string][]types.Type{}
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[t] {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seen[t] = true
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], t)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range m.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	for _, obj := range m.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		if _, ours := m.list[p.Path()]; !ours {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
	}
	return byName
}

// exportable: obj is a package-level object or a method of a named type,
// declared in a checked package and exported.
func exportable(obj types.Object) bool {
	if obj.Pkg() == nil || !obj.Exported() || !checkedPath(obj.Pkg().Path()) {
		return false
	}
	if f, ok := obj.(*types.Func); ok {
		if t, _ := receiver(f); t != nil {
			return true
		}
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// receiver returns the type method f is declared on, its pointer
// stripped, and whether f has a pointer receiver; nil for a function.
func receiver(f *types.Func) (types.Type, bool) {
	r := f.Type().(*types.Signature).Recv()
	if r == nil {
		return nil, false
	}
	if p, ok := r.Type().(*types.Pointer); ok {
		return p.Elem(), true
	}
	return r.Type(), false
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportKey names an object as the row and its allowlist do: the package
// path under internal/ (the root package as satori), then the name, a
// method as "(*T).M" or "(T).M".
func exportKey(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), internalPrefix)
	var t types.Type
	var ptr bool
	if f, ok := obj.(*types.Func); ok {
		t, ptr = receiver(f)
	}
	if t == nil {
		return pkg + "." + obj.Name()
	}
	name, star := "?", ""
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	if ptr {
		star = "*"
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkg, star, name, obj.Name())
}

func (m *module) pos(p token.Pos) string {
	at := m.fset.Position(p)
	name, err := filepath.Rel(m.dir, at.Filename)
	if err != nil {
		name = at.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(name), at.Line)
}

// used: every export has a use or is on the allowlist, and every
// allowlisted name is an export that has none.
func used(allow map[string]string) check {
	return func(ss []shape) error {
		exports, uses := map[string]shape{}, map[string]shape{}
		for _, s := range ss {
			switch s.kind {
			case "export":
				exports[s.text] = s
			case "use":
				if _, ok := uses[s.text]; !ok {
					uses[s.text] = s
				}
			}
		}
		var bad []string
		for _, name := range sortedKeys(exports) {
			if _, ok := uses[name]; !ok && allow[name] == "" {
				bad = append(bad, fmt.Sprintf("%s %s: no production caller", exports[name].at, name))
			}
		}
		for _, name := range sortedKeys(allow) {
			if _, ok := exports[name]; !ok {
				bad = append(bad, fmt.Sprintf("allowlisted %s: no such export", name))
			} else if u, ok := uses[name]; ok {
				bad = append(bad, fmt.Sprintf("allowlisted %s: used at %s", name, u.at))
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("%d exports break the rule:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
		}
		return nil
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestExportsAllowlist holds the row's check to its two allowlist failures:
// a name that no longer exists, and one that has gained a caller.
func TestExportsAllowlist(t *testing.T) {
	export := func(name string) shape { return shape{kind: "export", text: name, at: "x.go:1"} }
	use := func(name string) shape { return shape{kind: "use", text: name, at: "y.go:2"} }
	allow := map[string]string{"p.Kept": "a test reads it"}
	for _, tc := range []struct {
		name   string
		shapes []shape
		want   string // "" passes
	}{
		{"allowlisted and unused", []shape{export("p.Kept"), export("p.F"), use("p.F")}, ""},
		{"unused and not allowlisted", []shape{export("p.Kept"), export("p.F")}, "p.F: no production caller"},
		{"allowlisted name gone", []shape{export("p.F"), use("p.F")}, "allowlisted p.Kept: no such export"},
		{"allowlisted name gained a caller", []shape{export("p.Kept"), use("p.Kept")}, "allowlisted p.Kept: used at y.go:2"},
	} {
		err := used(allow)(tc.shapes)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestExportsResolveByType: a method named like a called one is unused all
// the same, a type its own methods name is unused, and a method its type
// needs to satisfy an interface (fmt.Stringer, rdt's anonymous
// Transient() bool, errors' Unwrap) is used.
func TestExportsResolveByType(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := m.withSnippet(goSrc(`
type Called struct{}
func (Called) Ticks() int { return 0 }
type Twin struct{}
func (Twin) Ticks() int { return 0 }
type Named struct{}
func (*Named) String() string { return "" }
type transient struct{}
func (transient) Transient() bool { return true }
func (transient) Unwrap() error { return nil }
var _ = Called{}.Ticks()`))
	if err != nil {
		t.Fatal(err)
	}
	exports, uses := map[string]bool{}, map[string]bool{}
	for _, s := range m.exportShapes(pkgs) {
		switch {
		case !strings.HasPrefix(s.text, "bad."):
		case s.kind == "export":
			exports[s.text] = true
		case s.kind == "use":
			uses[s.text] = true
		}
	}
	var unused []string
	for _, name := range sortedKeys(exports) {
		if !uses[name] {
			unused = append(unused, name)
		}
	}
	if want := []string{"bad.(Twin).Ticks", "bad.Named", "bad.Twin"}; !slices.Equal(unused, want) {
		t.Errorf("unused %v, want %v (exports %v)", unused, want, sortedKeys(exports))
	}
}

// TestExportsReadRootPackage: a file added to package satori is read with
// the root package's own files. Its unreferenced export is unused, one its
// other declaration names is used, and the names cmd/ and examples/ call,
// which resolve to the root package as first loaded, still count.
func TestExportsReadRootPackage(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := m.withSnippet(source{"bad.go", `package satori

func Dead() {}
func Live() {}
var _ = Live`})
	if err != nil {
		t.Fatal(err)
	}
	exports, uses := map[string]bool{}, map[string]bool{}
	for _, s := range m.exportShapes(pkgs) {
		switch s.kind {
		case "export":
			exports[s.text] = true
		case "use":
			uses[s.text] = true
		}
	}
	for name, want := range map[string]bool{"satori.Dead": false, "satori.Live": true, "satori.NewSession": true, "satori.(*Session).Step": true} {
		if !exports[name] {
			t.Errorf("%s: not read as an export", name)
		} else if uses[name] != want {
			t.Errorf("%s: used = %v, want %v", name, uses[name], want)
		}
	}
}
