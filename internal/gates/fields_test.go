package gates

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// fieldShapes reads type-checked packages. Each field of a struct declared
// in the root package or under internal/ is a "field", named by its struct
// (nested anonymous structs by the path to them). Each selector that reaches
// a field is a "read" of it, unless the code writes through it; the
// embedded fields a promoted selector passes count as reached too. A
// "write" is any of:
//   - a composite literal that keys the field, or fills its struct
//     positionally;
//   - an assignment (=, op=, ++, --, range =) to the field or to anything
//     reached through it: x.f =, x.f.g++, x.f[i] =;
//   - &x.f, or a pointer-receiver method called on the field's value;
//   - an encoding/json decode into the field's struct, directly or through
//     a function of the module that passes one of its parameters to the
//     decoder (every exported field the decoded type reaches).
//
// Fields resolve as *types.Var, so a promoted field counts for the struct
// that declares it.
func (m *module) fieldShapes(pkgs []*checked) []shape {
	names := map[*types.Var]string{}
	var ss []shape
	for _, p := range pkgs {
		if checkedPath(p.types.Path()) {
			m.nameFields(p, names, func(key string, v *types.Var) {
				ss = append(ss, shape{kind: "field", text: key, at: m.pos(v.Pos())})
			})
		}
	}
	for _, p := range m.checked() { // the root package as first loaded, which cmd/ resolves to
		m.nameFields(p, names, nil)
	}
	add := func(kind string, v *types.Var, at token.Pos) {
		if key, ok := names[v.Origin()]; ok {
			ss = append(ss, shape{kind: kind, text: key, at: m.pos(at)})
		}
	}

	decoders := m.decoders(pkgs)
	for _, p := range pkgs {
		for _, f := range p.files {
			written := m.writeSites(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					s := m.info.Selections[n]
					if s == nil {
						return true
					}
					kind := "read"
					if written[n] {
						kind = "write"
					}
					for _, v := range fieldPath(s) {
						add(kind, v, n.Sel.Pos())
					}
				case *ast.CompositeLit:
					st, ok := structOf(m.info.TypeOf(n))
					if !ok || len(n.Elts) == 0 {
						return true
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range st.NumFields() {
							add("write", st.Field(i), n.Lbrace)
						}
						return true
					}
					for _, e := range n.Elts {
						if v, ok := m.info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
							add("write", v, e.Pos())
						}
					}
				case *ast.CallExpr:
					if i, ok := decoders[m.callee(n)]; ok && i < len(n.Args) {
						decoded(m.info.TypeOf(n.Args[i]), map[types.Type]bool{}, func(v *types.Var) { add("write", v, n.Lparen) })
					}
				}
				return true
			})
		}
	}
	return ss
}

// nameFields names every field of the struct types a package declares,
// named or not, and reports those it defines to found when found is not nil.
func (m *module) nameFields(p *checked, names map[*types.Var]string, found func(string, *types.Var)) {
	pkg := strings.TrimPrefix(p.types.Path(), internalPrefix)
	var name func(prefix string, st *types.Struct)
	name = func(prefix string, st *types.Struct) {
		for i := range st.NumFields() {
			v := st.Field(i)
			if _, ok := names[v]; ok || v.Pkg() != p.types { // named already, or through an alias
				continue
			}
			key := prefix + "." + v.Name()
			names[v] = key
			if found != nil {
				found(key, v)
			}
			if inner, ok := anonymousStruct(v.Type()); ok {
				name(key, inner)
			}
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			outer := pkg
			if fd, ok := d.(*ast.FuncDecl); ok {
				outer = pkg + "." + fd.Name.Name
			}
			// Named types first, so a struct nested in one is named by it.
			ast.Inspect(d, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := m.info.Defs[ts.Name].Type().Underlying().(*types.Struct); ok {
						name(pkg+"."+ts.Name.Name, st)
					}
				}
				return true
			})
			ast.Inspect(d, func(n ast.Node) bool {
				if n, ok := n.(*ast.StructType); ok {
					if st, ok := m.info.TypeOf(n).(*types.Struct); ok {
						name(outer+".struct", st)
					}
				}
				return true
			})
		}
	}
}

// anonymousStruct: t is a struct type literal, or a pointer, slice, array
// or map of one.
func anonymousStruct(t types.Type) (*types.Struct, bool) {
	for {
		switch u := t.(type) {
		case *types.Struct:
			return u, true
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil, false
		}
	}
}

// structOf is the struct a composite literal of type t builds, its pointer
// stripped (an element literal elided from &T{...} has type *T).
func structOf(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// fieldPath is every field a selection reaches: the embedded fields it
// passes, then the selected field itself (not a method).
func fieldPath(s *types.Selection) []*types.Var {
	var vs []*types.Var
	idx := s.Index()
	switch s.Kind() {
	case types.MethodVal:
		idx = idx[:len(idx)-1]
	case types.MethodExpr:
		return nil
	}
	t := s.Recv()
	for _, i := range idx {
		st, ok := structOf(t)
		if !ok {
			break
		}
		v := st.Field(i)
		vs = append(vs, v.Origin())
		t = v.Type()
	}
	return vs
}

// addressed: calling the selected method takes its receiver's address, so
// the fields it is reached through are written.
func addressed(s *types.Selection) bool {
	f, ok := s.Obj().(*types.Func)
	if s.Kind() != types.MethodVal || !ok {
		return false
	}
	if _, ptr := receiver(f); !ptr {
		return false
	}
	t := s.Recv()
	if path := fieldPath(s); len(path) > 0 {
		t = path[len(path)-1].Type()
	}
	_, isPtr := t.Underlying().(*types.Pointer)
	return !isPtr
}

// writeSites is every selector of f the code writes through.
func (m *module) writeSites(f *ast.File) map[*ast.SelectorExpr]bool {
	w := map[*ast.SelectorExpr]bool{}
	var chain func(e ast.Expr)
	chain = func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				s := m.info.Selections[x]
				if s == nil || s.Kind() != types.FieldVal {
					return
				}
				w[x] = true
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					chain(l)
				}
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				chain(n.Key)
				chain(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		case *ast.SelectorExpr:
			if s := m.info.Selections[n]; s != nil && addressed(s) {
				w[n] = true
				chain(n.X)
			}
		}
		return true
	})
	return w
}

// callee is the function or method a call names, or nil.
func (m *module) callee(c *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := m.info.Uses[id].(*types.Func)
	if f != nil {
		f = f.Origin()
	}
	return f
}

// decoders maps each function that decodes JSON into one of its arguments
// to that argument's index: json.Unmarshal's second, (*json.Decoder).Decode's
// only one, and every function of the module that hands one of its own
// parameters to either.
func (m *module) decoders(pkgs []*checked) map[*types.Func]int {
	ds := map[*types.Func]int{}
	if json, err := m.Import("encoding/json"); err == nil {
		ds[json.Scope().Lookup("Unmarshal").(*types.Func)] = 1
		decode, _, _ := types.LookupFieldOrMethod(types.NewPointer(json.Scope().Lookup("Decoder").Type()), false, json, "Decode")
		ds[decode.(*types.Func)] = 0
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				params := fn.Type().(*types.Signature).Params()
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if i, ok := ds[m.callee(c)]; ok && i < len(c.Args) {
						if id, ok := ast.Unparen(c.Args[i]).(*ast.Ident); ok {
							for j := range params.Len() {
								if m.info.Uses[id] == params.At(j) {
									ds[fn] = j
								}
							}
						}
					}
					return true
				})
			}
		}
	}
	return ds
}

// decoded reports every exported field that decoding JSON into a value of
// type t can set, through pointers, slices, arrays, maps and nested structs.
func decoded(t types.Type, seen map[types.Type]bool, write func(*types.Var)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		decoded(u.Elem(), seen, write)
	case *types.Slice:
		decoded(u.Elem(), seen, write)
	case *types.Array:
		decoded(u.Elem(), seen, write)
	case *types.Map:
		decoded(u.Elem(), seen, write)
	case *types.Struct:
		for i := range u.NumFields() {
			if v := u.Field(i); v.Exported() {
				write(v)
				decoded(v.Type(), seen, write)
			}
		}
	}
}

// written: every field that is read has a write or is on the allowlist,
// and every allowlisted name is a field that is read and has none.
func written(allow map[string]string) check {
	return func(ss []shape) error {
		first := map[string]map[string]shape{"field": {}, "read": {}, "write": {}}
		for _, s := range ss {
			if byName := first[s.kind]; byName != nil && byName[s.text].at == "" {
				byName[s.text] = s
			}
		}
		fields, reads, writes := first["field"], first["read"], first["write"]
		var bad []string
		for _, name := range sortedKeys(reads) {
			if writes[name].at == "" && allow[name] == "" && fields[name].at != "" {
				bad = append(bad, fmt.Sprintf("%s %s: read at %s, no production writer", fields[name].at, name, reads[name].at))
			}
		}
		for _, name := range sortedKeys(allow) {
			switch {
			case fields[name].at == "":
				bad = append(bad, fmt.Sprintf("allowlisted %s: no such field", name))
			case writes[name].at != "":
				bad = append(bad, fmt.Sprintf("allowlisted %s: written at %s", name, writes[name].at))
			case reads[name].at == "":
				bad = append(bad, fmt.Sprintf("allowlisted %s: never read", name))
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("%d fields break the rule:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
		}
		return nil
	}
}

// TestFieldsAllowlist holds the row's check to its allowlist failures: a
// name that is no field, one that gained a writer, one nothing reads.
func TestFieldsAllowlist(t *testing.T) {
	field := func(name string) shape { return shape{kind: "field", text: name, at: "x.go:1"} }
	read := func(name string) shape { return shape{kind: "read", text: name, at: "y.go:2"} }
	write := func(name string) shape { return shape{kind: "write", text: name, at: "z.go:3"} }
	allow := map[string]string{"p.T.kept": "a test sets it"}
	for _, tc := range []struct {
		name   string
		shapes []shape
		want   string // "" passes
	}{
		{"allowlisted and read", []shape{field("p.T.kept"), read("p.T.kept"), field("p.T.f"), read("p.T.f"), write("p.T.f")}, ""},
		{"neither read nor written", []shape{field("p.T.kept"), read("p.T.kept"), field("p.T.f")}, ""},
		{"read and never written", []shape{field("p.T.kept"), read("p.T.kept"), field("p.T.f"), read("p.T.f")}, "p.T.f: read at y.go:2, no production writer"},
		{"allowlisted field gone", []shape{read("p.T.kept")}, "allowlisted p.T.kept: no such field"},
		{"allowlisted field gained a writer", []shape{field("p.T.kept"), read("p.T.kept"), write("p.T.kept")}, "allowlisted p.T.kept: written at z.go:3"},
		{"allowlisted field not read", []shape{field("p.T.kept")}, "allowlisted p.T.kept: never read"},
	} {
		err := written(allow)(tc.shapes)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFieldsResolveEachWrite: each write form counts, for the field that
// declares it — a promoted field, a pointer-method call on a value, an
// address, a positional literal, an assignment through a field, a
// JSON-decoded struct — while a pointer-method call through a pointer field
// and a plain read do not; the server's request bodies count as written by
// their decoder.
func TestFieldsResolveEachWrite(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := m.withSnippet(goSrc(`import ("encoding/json"; "sync")

type Inner struct{ promoted, unread int }
type Outer struct {
	Inner
	mu      sync.Mutex
	ptrMu   *sync.Mutex
	addr    int
	slice   []int
	pos     Pair
	Decoded *Body
	onlyRead int
}
type Pair struct{ a, b int }
type Body struct{ Name string; Deep []struct{ X int } }

func use(o *Outer, b []byte) int {
	o.promoted = 1
	o.mu.Lock()
	o.ptrMu.Lock()
	p := &o.addr
	o.slice[0]++
	o.pos = Pair{1, 2}
	decode(b, &o.Decoded)
	return *p + o.promoted + o.onlyRead + len(o.Decoded.Name) + o.Decoded.Deep[0].X + o.pos.a + o.pos.b + len(o.slice)
}

func decode(b []byte, v any) { _ = json.Unmarshal(b, v) }`))
	if err != nil {
		t.Fatal(err)
	}
	writes := map[string]bool{}
	var fields []string
	for _, s := range m.fieldShapes(pkgs) {
		switch {
		case s.kind == "field" && strings.HasPrefix(s.text, "bad."):
			fields = append(fields, s.text)
		case s.kind == "write":
			writes[s.text] = true
		}
	}
	var unwritten []string
	for _, name := range fields {
		if !writes[name] {
			unwritten = append(unwritten, name)
		}
	}
	slices.Sort(unwritten)
	// Inner is reached by o.promoted = 1 and so written with it.
	if want := []string{"bad.Inner.unread", "bad.Outer.onlyRead", "bad.Outer.ptrMu"}; !slices.Equal(unwritten, want) {
		t.Errorf("unwritten %v, want %v (fields %v)", unwritten, want, fields)
	}
	for _, name := range []string{"server.AddJobRequest.Workload", "server.GoalRequest.Throughput", "server.GoalRequest.Fairness"} {
		if !writes[name] {
			t.Errorf("%s: not read as written by its JSON decoder", name)
		}
	}
}
