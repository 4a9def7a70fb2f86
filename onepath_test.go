package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// This file gates the rule that each behaviour has one production path
// and at most one small oracle. It type-checks every non-test file of
// the module, the perfbench harness and examples/ included (they are
// production callers too), follows what production code reaches from
// its roots, and flags three kinds of surface that no binary needs
// unless the allow-list below says why it stays:
//   - reach: a package-level declaration or method, exported or not,
//     that no root reaches. The roots are every main, every init and
//     every package-level initialiser of a package some main links,
//     except a blank assertion (var _ I = T{}), which keeps nothing
//     alive. A declaration is live when live code names it. A method is
//     live when its receiver type is live and live code calls it
//     directly, calls its name through an interface the type
//     implements, or it satisfies a standard-library interface (the RTA
//     approximation). An interface method is live when live code calls
//     it through the interface. The methods of a dead type are not
//     listed apart from it;
//   - fields: an exported field of an exported, live struct type of a
//     library package that no live code sets, a knob with no production
//     caller. Copying the field from another value (x.F = y.F,
//     T{F: y.F}) does not set it;
//   - reads: a field, exported or not, of a live struct type of a
//     library package that live code sets and never reads. The left
//     side of an assignment and the operand of ++ or -- are not reads.
//     Every field of a struct that is a map key or an operand of == or
//     != is read, since comparing the struct reads them. A struct with
//     a json-tagged field crosses a codec that reads every field, and
//     so does each struct its fields carry, so these wire types are
//     exempt.
//
// The same load pins which production packages may import the two
// leaf subsystems. TestOnePathFixture pins every rule on the small
// module under testdata/onepath.

// modulePath is the import path of the module rooted at this directory;
// perfbench is a module of its own that resolves repro to it.
const modulePath = "repro"

// Fields that production writes and only tests read.
const (
	outcomeCount = "outcome count the tests assert: ROADMAP item 7 (explain, events) is its planned production reader"
	walRecord    = "WAL record: ROADMAP item 4's conservation check will replay the log"
	shortSkip    = "tests skip the four deviation searches under -short: one field is simpler than a four-ID list copied into two test packages"
)

// testOnlyAllowed lists the identifiers and fields the rules flag, each
// with the reason it stays in production code. Keys are "<package
// dir>.<Name>", "<package dir>.<Type>.<Method>" or "<package
// dir>.<Type>.<Field>".
var testOnlyAllowed = map[string]string{
	"internal/core.StatefulEpochedSystem":   "perfbench spells it (ROADMAP item 1)",
	"internal/experiments.Experiment.Slow":  shortSkip,
	"internal/faithful.MaxTolerableLoss":    "contract constant: the loss threshold other packages' docs cite",
	"internal/fpss.ExecResult.Delivered":    outcomeCount,
	"internal/fpss.ExecResult.Undelivered":  outcomeCount,
	"internal/settle.Entry.Account":         walRecord,
	"internal/settle.Entry.Amount":          walRecord,
	"internal/settle.Options.FaultOverride": "fault-injection seam: TestShardCrashNeverBlamesPrincipals hands it a schedule; ROADMAP item 4 fuzzes through it",
	"internal/settle.Options.Loss":          "fault-injection seam: drives the gated BenchmarkSettle/k=4/plan=none/n=32/loss=0.1 row",
	"internal/settle.Options.Timeout":       "fault-injection seam: settlement and shard tests shorten the retransmission quantum",
	"internal/settle.Result.Aborted":        outcomeCount,
	"internal/settle.Result.Committed":      outcomeCount,
	"internal/settle.Result.Counters":       outcomeCount,
	"internal/settle.Result.InDoubt":        outcomeCount,
	"internal/settle.Result.InfraAborts":    outcomeCount,
	"internal/sim.LossModel.Attempts":       "fault-injection seam: loss tests force one attempt or widen the retry envelope",
	"internal/sim.LossModel.RetryDelay":     "fault-injection seam: loss tests stretch the retry backoff",
}

// importersAllowed pins, for each leaf package, the only production
// packages that may import it.
var importersAllowed = map[string][]string{
	"internal/live":        {"cmd/liveserve", "perfbench"},
	"internal/experiments": {"cmd/benchtab"},
}

// prodPackage is one type-checked production package.
type prodPackage struct {
	pkg     *types.Package
	files   []*ast.File
	imports []string // dirs of the module packages it imports
}

// production is the module type-checked from its non-test files, with
// what its roots reach.
type production struct {
	pkgs  map[string]*prodPackage       // by dir relative to the module root
	info  *types.Info                   // of every package
	decls map[types.Object]ast.Node     // package-level declarations and methods
	live  map[types.Object]bool         // objects live code names, and live methods
	calls map[ifaceCall]bool            // interface methods live code calls
	std   map[string][]*types.Interface // standard interfaces by method name
	sets  map[*types.Var]bool           // fields live code sets
	reads map[*types.Var]bool           // fields live code reads
}

// ifaceCall is a call of method name through interface it.
type ifaceCall struct {
	it   *types.Interface
	name string
}

// loadProduction type-checks every package directory under root, the
// root of the module modPath, and marks what its roots reach. Module
// imports resolve to the packages checked here, so uses land on the
// same objects; standard ones go to the source importer.
func loadProduction(root, modPath string) (*production, error) {
	// The pure-Go files of cgo packages such as net declare the same
	// API, and reading them needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	r := &production{
		pkgs: map[string]*prodPackage{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		decls: map[types.Object]ast.Node{}, live: map[types.Object]bool{},
		calls: map[ifaceCall]bool{}, std: map[string][]*types.Interface{},
		sets: map[*types.Var]bool{}, reads: map[*types.Var]bool{},
	}
	var stdPkgs []*types.Package

	var check func(dir string) (*prodPackage, error)
	check = func(dir string) (*prodPackage, error) {
		if p, ok := r.pkgs[dir]; ok {
			return p, nil
		}
		r.pkgs[dir] = nil
		bp, err := build.ImportDir(filepath.Join(root, filepath.FromSlash(dir)), 0)
		if _, none := err.(*build.NoGoError); none || (err == nil && len(bp.GoFiles) == 0) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		p := &prodPackage{}
		for _, name := range bp.GoFiles {
			abs, err := filepath.Abs(filepath.Join(bp.Dir, name))
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, abs, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
			if rel, ok := strings.CutPrefix(path, modPath+"/"); ok {
				q, err := check(rel)
				if err != nil {
					return nil, err
				}
				p.imports = append(p.imports, rel)
				return q.pkg, nil
			}
			q, err := std.ImportFrom(path, srcDir, 0)
			if err == nil {
				stdPkgs = append(stdPkgs, q)
			}
			return q, err
		})}
		if p.pkg, err = conf.Check(modPath+"/"+dir, fset, p.files, r.info); err != nil {
			return nil, err
		}
		r.pkgs[dir] = p
		return p, nil
	}

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = check(filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		return nil, err
	}
	r.indexStd(stdPkgs)
	r.reach()
	return r, nil
}

type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// indexStd records, by method name, every interface of the universe and
// of the standard packages pkgs import, transitively, that a module type
// can implement.
func (r *production) indexStd(pkgs []*types.Package) {
	add := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || it.NumMethods() == 0 {
				continue
			}
			exported := true
			for i := 0; i < it.NumMethods(); i++ {
				exported = exported && it.Method(i).Exported()
			}
			for i := 0; exported && i < it.NumMethods(); i++ {
				m := it.Method(i).Name()
				r.std[m] = append(r.std[m], it)
			}
		}
	}
	add(types.Universe)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			add(p.Scope())
			for _, q := range p.Imports() {
				walk(q)
			}
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
}

// forDecls calls fn for each package-level declaration of p: a function
// or method with its FuncDecl, a type with its TypeSpec, and a variable
// or constant with its ValueSpec.
func (r *production) forDecls(p *prodPackage, fn func(obj types.Object, node ast.Node)) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := r.info.Defs[d.Name]; obj != nil {
					fn(obj, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						fn(r.info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if obj := r.info.Defs[name]; obj != nil {
								fn(obj, s)
							}
						}
					}
				}
			}
		}
	}
}

// blankAssertion reports whether s is var _ I = v, which only asserts
// that v implements I.
func blankAssertion(s *ast.ValueSpec) bool {
	for _, name := range s.Names {
		if name.Name != "_" {
			return false
		}
	}
	return s.Type != nil
}

// recvType returns the named type whose method m is.
func recvType(m *types.Func) *types.TypeName {
	return namedOf(m.Type().(*types.Signature).Recv().Type())
}

// namedOf returns the type name of t, or of what t points to.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// reach marks in r.live what the roots reach: every main, every init
// and every package-level initialiser but a blank assertion, in the
// packages some main links. It walks each live declaration for the
// objects it names, the interface methods it calls and the fields it
// sets and reads, then marks the methods that a live type's interface
// satisfaction makes callable, until nothing changes.
func (r *production) reach() {
	var queue []ast.Node
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		if obj = origin(obj); obj == nil || r.live[obj] {
			return
		}
		r.live[obj] = true
		node, ok := r.decls[obj]
		if !ok {
			return
		}
		queue = append(queue, node)
		// A live method's receiver type, and a live variable's or
		// constant's type, has values even where no live code spells it.
		var t types.Type
		switch o := obj.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				t = recv.Type()
			}
		case *types.Var, *types.Const:
			t = o.Type()
		}
		if tn := namedOf(t); tn != nil {
			mark(tn)
		}
	}

	linked := map[string]bool{}
	var link func(dir string)
	link = func(dir string) {
		if p := r.pkgs[dir]; p != nil && !linked[dir] {
			linked[dir] = true
			for _, imp := range p.imports {
				link(imp)
			}
		}
	}
	for dir, p := range r.pkgs {
		if p != nil && p.pkg.Name() == "main" {
			link(dir)
		}
	}
	for dir, p := range r.pkgs {
		if p == nil {
			continue
		}
		isMain := p.pkg.Name() == "main"
		r.forDecls(p, func(obj types.Object, node ast.Node) {
			if obj.Name() != "_" {
				r.decls[obj] = node
			}
			if !linked[dir] {
				return
			}
			switch n := node.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && (n.Name.Name == "init" || isMain && n.Name.Name == "main") {
					queue = append(queue, n)
				}
			case *ast.ValueSpec:
				if !blankAssertion(n) && obj == r.info.Defs[n.Names[0]] {
					for _, v := range n.Values {
						queue = append(queue, v)
					}
				}
			}
		})
	}

	stdDone := map[*types.TypeName]bool{}
	for {
		for len(queue) > 0 {
			node := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			r.walk(node, mark)
		}
		var liveTypes []*types.TypeName
		for obj := range r.live {
			if tn, ok := obj.(*types.TypeName); ok && r.decls[tn] != nil {
				liveTypes = append(liveTypes, tn)
			}
		}
		for _, tn := range liveTypes {
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			implements := func(it *types.Interface) bool {
				return types.Implements(named, it) || types.Implements(ptr, it)
			}
			callable := func(name string) {
				if m, _, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), name); m != nil {
					if _, isFunc := m.(*types.Func); isFunc {
						mark(m)
					}
				}
			}
			for c := range r.calls {
				if implements(c.it) {
					callable(c.name)
				}
			}
			if stdDone[tn] {
				continue
			}
			stdDone[tn] = true
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				for _, it := range r.std[ms.At(i).Obj().Name()] {
					if implements(it) {
						for j := 0; j < it.NumMethods(); j++ {
							callable(it.Method(j).Name())
						}
					}
				}
			}
		}
		if len(queue) == 0 {
			return
		}
	}
}

// walk marks every object node names, records every interface method it
// calls, and records in r.sets and r.reads the fields it sets and reads.
// A field is set by a key or a position in a struct literal, or by an
// assignment, ++, -- or & through a selector chain, which sets every
// field along the chain; copying it from another value of its type does
// not set it. Every selector of a field reads it except the whole left
// side of an assignment and the operand of ++ or --, and comparing a
// struct, or keying a map by it, reads all its fields.
func (r *production) walk(node ast.Node, mark func(types.Object)) {
	info := r.info
	field := func(e ast.Expr) *types.Var {
		if x, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				return origin(sel.Obj()).(*types.Var)
			}
		}
		return nil
	}
	written := map[ast.Expr]bool{} // selectors that are written, not read
	setChain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v := field(x); v != nil {
					r.sets[v] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				mark(obj)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				v, val := st.Field(i), elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v, val = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
				}
				if v = origin(v).(*types.Var); field(val) != v {
					r.sets[v] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				written[ast.Unparen(lhs)] = true
				if v := field(lhs); v != nil && len(n.Rhs) == len(n.Lhs) && field(n.Rhs[i]) == v {
					setChain(ast.Unparen(lhs).(*ast.SelectorExpr).X)
				} else {
					setChain(lhs)
				}
			}
		case *ast.IncDecStmt:
			written[ast.Unparen(n.X)] = true
			setChain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				setChain(n.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			switch {
			case sel == nil:
			case sel.Kind() == types.FieldVal:
				if !written[n] {
					r.reads[origin(sel.Obj()).(*types.Var)] = true
				}
			default:
				recv := sel.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if it, ok := recv.Underlying().(*types.Interface); ok {
					r.calls[ifaceCall{it, n.Sel.Name}] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				r.readAll(info.TypeOf(n.X), map[types.Type]bool{})
			}
		case *ast.MapType:
			r.readAll(info.TypeOf(n.Key), map[types.Type]bool{})
		}
		return true
	})
}

// readAll records as read every field of t, a struct or array compared
// as a whole, and of the structs and arrays it holds by value.
func (r *production) readAll(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Array:
		r.readAll(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.reads[u.Field(i)] = true
			r.readAll(u.Field(i).Type(), seen)
		}
	}
}

// unreachable returns, sorted, the key of every package-level
// declaration that no root reaches, of every method of a live type that
// is not live, and of every method of a live interface that live code
// never calls through it.
func (r *production) unreachable() []string {
	var out []string
	for dir, p := range r.pkgs {
		if p == nil {
			continue
		}
		isMain := p.pkg.Name() == "main"
		r.forDecls(p, func(obj types.Object, node ast.Node) {
			name := obj.Name()
			if name == "_" {
				return
			}
			if r.live[obj] {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.IsAlias() {
					return
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						if m := it.ExplicitMethod(i); !r.live[m] {
							out = append(out, dir+"."+name+"."+m.Name())
						}
					}
				}
				return
			}
			if fd, ok := node.(*ast.FuncDecl); ok {
				if fd.Recv != nil {
					tn := recvType(obj.(*types.Func))
					if tn == nil || !r.live[tn] {
						return // the dead type's own key covers it
					}
					name = tn.Name() + "." + name
				} else if name == "init" || isMain && name == "main" {
					return
				}
			}
			out = append(out, dir+"."+name)
		})
	}
	sort.Strings(out)
	return out
}

// flagFields returns, sorted, the key of every non-embedded field of a
// live named struct type of a library package that flag reports;
// exportedOnly limits it to the exported fields of exported types.
func (r *production) flagFields(exportedOnly bool, flag func(st *types.Struct, f *types.Var) bool) []string {
	var out []string
	for dir, p := range r.pkgs {
		if p == nil || p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !r.live[tn] || tn.IsAlias() || exportedOnly && !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && (f.Exported() || !exportedOnly) && flag(st, f) {
					out = append(out, dir+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// testOnlyFields returns the exported fields that no live code sets.
func (r *production) testOnlyFields() []string {
	return r.flagFields(true, func(_ *types.Struct, f *types.Var) bool { return !r.sets[f] })
}

// writeOnlyFields returns the fields that live code sets and never
// reads, except those of a wire type: a codec reads all its fields.
func (r *production) writeOnlyFields() []string {
	wire := r.wireTypes()
	return r.flagFields(false, func(st *types.Struct, f *types.Var) bool {
		return !wire[st] && r.sets[f] && !r.reads[f]
	})
}

// wireTypes returns the struct types that cross a JSON codec: each
// struct of a production package with a json-tagged field, and each
// struct its fields reach through pointers, slices, arrays and map
// values.
func (r *production) wireTypes() map[*types.Struct]bool {
	wire := map[*types.Struct]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case interface{ Elem() types.Type }:
			reach(u.Elem())
		case *types.Struct:
			if !wire[u] {
				wire[u] = true
				for i := 0; i < u.NumFields(); i++ {
					reach(u.Field(i).Type())
				}
			}
		}
	}
	for _, p := range r.pkgs {
		if p == nil {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); tagged {
					reach(st)
					break
				}
			}
		}
	}
	return wire
}

// gateRules are the subtests whose flagged keys the allow-list covers,
// each with the fix its failure suggests.
var gateRules = []struct {
	name, fix string
	flag      func(*production) []string
}{
	{"reach", "is reached from no main, init or initialiser: move it into a _test.go file, delete it", (*production).unreachable},
	{"fields", "is a field that no live code sets: delete it", (*production).testOnlyFields},
	{"reads", "is a field that live code sets and never reads: give it a reader, delete it", (*production).writeOnlyFields},
}

// unallowed returns, by rule name, the keys each rule flags that
// allowed lacks, and, sorted, the entries of allowed that no rule flags.
func unallowed(r *production, allowed map[string]string) (missing map[string][]string, stale []string) {
	missing = map[string][]string{}
	flagged := map[string]bool{}
	for _, rule := range gateRules {
		for _, key := range rule.flag(r) {
			flagged[key] = true
			if _, ok := allowed[key]; !ok {
				missing[rule.name] = append(missing[rule.name], key)
			}
		}
	}
	for key := range allowed {
		if !flagged[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return missing, stale
}

// TestOnePathOneOracle fails on any key a rule flags that is missing
// from the allow-list, on any allow-list entry that no rule flags
// (because live code now reaches, sets or reads it, or it is gone), and
// on any production import of a pinned leaf package from outside its
// allowed importers.
func TestOnePathOneOracle(t *testing.T) {
	r, err := loadProduction(".", modulePath)
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := unallowed(r, testOnlyAllowed)
	for _, rule := range gateRules {
		t.Run(rule.name, func(t *testing.T) {
			for _, key := range missing[rule.name] {
				t.Errorf("%s %s, or allow-list it with a reason", key, rule.fix)
			}
		})
	}
	for _, key := range stale {
		t.Errorf("allow-list entry %s is stale: live code reaches, sets or reads it, or it is gone", key)
	}

	t.Run("imports", func(t *testing.T) {
		for dir, p := range r.pkgs {
			if p == nil {
				continue
			}
			for _, imp := range p.imports {
				if allowed, pinned := importersAllowed[imp]; pinned && !slices.Contains(allowed, dir) {
					t.Errorf("%s imports %s; only %v may", dir, imp, allowed)
				}
			}
		}
	})
}

// TestOnePathFixture pins every rule on testdata/onepath, a module with
// one case per rule; each case's comment says what the gate makes of it.
func TestOnePathFixture(t *testing.T) {
	r, err := loadProduction(filepath.Join("testdata", "onepath"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	missing, stale := unallowed(r, map[string]string{
		"lib.TestOnly": "an allowed test-only export",
		"lib.Gone":     "a stale entry",
	})
	want := map[string][]string{
		"reach": {"lib.Asserted", "lib.Receiver", "lib.Shape.Name",
			"lib.onlyFromDead", "lib.square.Name", "lib.unused"},
		"fields": {"lib.Config.Mode", "lib.Config.Verbose"},
		"reads":  {"lib.Stats.Misses", "lib.Stats.last"},
	}
	if !reflect.DeepEqual(missing, want) {
		t.Errorf("flagged %v, want %v", missing, want)
	}
	if !slices.Equal(stale, []string{"lib.Gone"}) {
		t.Errorf("stale entries %v, want [lib.Gone]", stale)
	}
}
