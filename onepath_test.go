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
// production callers too), and flags three kinds of test-only surface
// unless the allow-list below says why it stays:
//   - exports: an exported package-level identifier, method or
//     interface method that no production file references. A method's
//     receiver and a blank assertion (var _ I = (*T)(nil)) do not count
//     as references, so a type is not kept alive by its own methods,
//     and an interface method counts only when production calls it
//     through the interface;
//   - fields: an exported field of an exported struct type that no
//     production file sets, a knob with no production caller. Copying
//     the field from another value (x.F = y.F, T{F: y.F}) does not set
//     it;
//   - reads: such a field that production sets and never reads. The
//     left side of an assignment and the operand of ++ or -- are not
//     reads. A struct with a json-tagged field crosses a codec that
//     reads every field, and so does each struct its fields carry, so
//     these wire types are exempt.
//
// The same load pins which production packages may import the two
// leaf subsystems. TestOnePathFixture pins every rule on the small
// module under testdata/onepath.

// modulePath is the import path of the module rooted at this directory;
// perfbench is a module of its own that resolves repro to it.
const modulePath = "repro"

// The §3 models are reproduced by their tests; experiments read only
// the parts the tables print.
const (
	specModel     = "§3.1–§3.9 specification model: its tests reproduce the paper's construction; E7 reads only the phase calculator"
	mechModel     = "§3.2 mechanism substrate: its tests reproduce Definition 5 and Proposition 2(i) over the FPSS adapter"
	electionModel = "§3 leader-election model: its tests run the deviation search over it; E8 calls election.Run directly"
)

// Fields that production writes and only tests read.
const (
	outcomeCount = "outcome count the tests assert: ROADMAP items 7 (explain, events) and 9 (gated counts) are its planned production readers"
	walRecord    = "WAL record: ROADMAP item 4's conservation check will replay the log"
	shortSkip    = "tests skip the four deviation searches under -short: one field is simpler than a four-ID list copied into two test packages"
)

// testOnlyAllowed lists the identifiers and fields the rules flag, each
// with the reason it stays in production code. Keys are "<package
// dir>.<Name>", "<package dir>.<Type>.<Method>" or "<package
// dir>.<Type>.<Field>".
var testOnlyAllowed = map[string]string{
	"internal/core.StatefulEpochedSystem":          "perfbench spells it (ROADMAP item 1)",
	"internal/election.System":                     electionModel,
	"internal/election.System.Cfg":                 electionModel,
	"internal/experiments.Experiment.Slow":         shortSkip,
	"internal/faithful.MaxTolerableLoss":           "contract constant: the loss threshold other packages' docs cite",
	"internal/fpss.ExecResult.Delivered":           outcomeCount,
	"internal/fpss.ExecResult.Undelivered":         outcomeCount,
	"internal/fpss.RoutingMechanism":               mechModel,
	"internal/fpss.RoutingMechanism.DeliveryValue": mechModel,
	"internal/fpss.RoutingMechanism.Outcome":       mechModel,
	"internal/fpss.RoutingMechanism.Topology":      mechModel,
	"internal/fpss.RoutingMechanism.Traffic":       mechModel,
	"internal/fpss.RoutingMechanism.Transfers":     mechModel,
	"internal/fpss.RoutingMechanism.Utility":       mechModel,
	"internal/mech.CheckStrategyproof":             mechModel,
	"internal/mech.VCG":                            mechModel,
	"internal/mech.VCG.NumOutcomes":                mechModel,
	"internal/mech.VCG.Outcome":                    mechModel,
	"internal/mech.VCG.Transfers":                  mechModel,
	"internal/mech.VCG.TruthfulValue":              mechModel,
	"internal/mech.VCG.Value":                      mechModel,
	"internal/settle.Entry.Account":                walRecord,
	"internal/settle.Entry.Amount":                 walRecord,
	"internal/settle.Options.FaultOverride":        "fault-injection seam: TestShardCrashNeverBlamesPrincipals hands it a schedule; ROADMAP item 4 fuzzes through it",
	"internal/settle.Options.Loss":                 "fault-injection seam: drives the gated BenchmarkSettle/k=4/plan=none/n=32/loss=0.1 row",
	"internal/settle.Options.Timeout":              "fault-injection seam: settlement and shard tests shorten the retransmission quantum",
	"internal/settle.Result.Aborted":               outcomeCount,
	"internal/settle.Result.Committed":             outcomeCount,
	"internal/settle.Result.Counters":              outcomeCount,
	"internal/settle.Result.InDoubt":               outcomeCount,
	"internal/settle.Result.InfraAborts":           outcomeCount,
	"internal/sim.LossModel.Attempts":              "fault-injection seam: loss tests force one attempt or widen the retry envelope",
	"internal/sim.LossModel.RetryDelay":            "fault-injection seam: loss tests stretch the retry backoff",
	"internal/spec.ActionKind.External":            specModel,
	"internal/spec.BuildExtendedFPSS":              specModel,
	"internal/spec.ExtendedFPSSPhases":             specModel,
	"internal/spec.Machine.Action":                 specModel,
	"internal/spec.Machine.Actions":                specModel,
	"internal/spec.Machine.States":                 specModel,
	"internal/spec.Specification.SubStrategies":    specModel,
	"internal/spec.Specification.Trace":            specModel,
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
	imports []string // dirs of the module packages it imports
}

// production is the module type-checked from its non-test files.
type production struct {
	pkgs  map[string]*prodPackage // by dir relative to the module root
	uses  map[types.Object]bool   // objects some production file names
	sets  map[*types.Var]bool     // fields some production file sets
	reads map[*types.Var]bool     // fields some production file reads
	std   []*types.Package        // the standard packages it imports
}

// loadProduction type-checks every package directory under root, the
// root of the module modPath. Module imports resolve to the packages
// checked here, so uses land on the same objects; standard ones go to
// the source importer.
func loadProduction(root, modPath string) (*production, error) {
	// The pure-Go files of cgo packages such as net declare the same
	// API, and reading them needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	r := &production{pkgs: map[string]*prodPackage{}, uses: map[types.Object]bool{},
		sets: map[*types.Var]bool{}, reads: map[*types.Var]bool{}}
	stdSeen := map[*types.Package]bool{}
	var all []*ast.File

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
		var files []*ast.File
		for _, name := range bp.GoFiles {
			abs, err := filepath.Abs(filepath.Join(bp.Dir, name))
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, abs, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		all = append(all, files...)
		p := &prodPackage{}
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
			if err == nil && !stdSeen[q] {
				stdSeen[q] = true
				r.std = append(r.std, q)
			}
			return q, err
		})}
		if p.pkg, err = conf.Check(modPath+"/"+dir, fset, files, info); err != nil {
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
	notUses := map[*ast.Ident]bool{}
	for _, f := range all {
		r.scan(f, info, notUses)
	}
	for id, obj := range info.Uses {
		if !notUses[id] {
			r.uses[origin(obj)] = true
		}
	}
	return r, nil
}

// scan records in r.sets every field that f sets, in r.reads every
// field that f reads, and in notUses the identifiers of f that name
// something without using it: those of a method's receiver and those
// of a blank assertion (var _ I = (*T)(nil)). A field is set by a key
// or a position in a struct literal, or by an assignment, ++, -- or &
// through a selector chain, which sets every field along the chain;
// copying it from another value of its type does not set it. Every
// selector of a field reads it except the whole left side of an
// assignment and the operand of ++ or --.
func (r *production) scan(f *ast.File, info *types.Info, notUses map[*ast.Ident]bool) {
	skip := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				notUses[id] = true
			}
			return true
		})
	}
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
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				skip(n.Recv)
			}
		case *ast.ValueSpec:
			if len(n.Names) == 1 && n.Names[0].Name == "_" {
				skip(n)
				return false
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
			if v := field(n); v != nil && !written[n] {
				r.reads[v] = true
			}
		}
		return true
	})
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

// testOnlyExports returns, sorted, the key of every exported
// package-level identifier and method of a library package that no
// production file names. A method also counts as used when its type
// satisfies a module or standard interface that names it, since a call
// through the interface names only the interface's method; so an
// exported interface's own method counts only when production names it
// through the interface.
func (r *production) testOnlyExports() []string {
	ifaces := map[string][]*types.Interface{} // by method name
	addIfaces := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i).Name()
					ifaces[m] = append(ifaces[m], it)
				}
			}
		}
	}
	addIfaces(types.Universe)
	seen := map[*types.Package]bool{}
	var addStd func(p *types.Package)
	addStd = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			addIfaces(p.Scope())
			for _, q := range p.Imports() {
				addStd(q)
			}
		}
	}
	for _, p := range r.std {
		addStd(p)
	}
	for _, p := range r.pkgs {
		if p != nil {
			addIfaces(p.pkg.Scope())
		}
	}
	satisfies := func(t types.Type, method string) bool {
		for _, it := range ifaces[method] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	var out []string
	for dir, p := range r.pkgs {
		if p == nil || p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !r.uses[obj] {
				out = append(out, dir+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !r.uses[m] && !satisfies(named, m.Name()) {
					out = append(out, dir+"."+name+"."+m.Name())
				}
			}
			if it, ok := named.Underlying().(*types.Interface); ok && tn.Exported() {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() && !r.uses[m] {
						out = append(out, dir+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// flagFields returns, sorted, the key of every exported, non-embedded
// field of an exported struct type of a library package that flag
// reports.
func (r *production) flagFields(flag func(st *types.Struct, f *types.Var) bool) []string {
	var out []string
	for dir, p := range r.pkgs {
		if p == nil || p.pkg.Name() == "main" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() && flag(st, f) {
					out = append(out, dir+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// testOnlyFields returns the fields that no production file sets.
func (r *production) testOnlyFields() []string {
	return r.flagFields(func(_ *types.Struct, f *types.Var) bool { return !r.sets[f] })
}

// writeOnlyFields returns the fields that production sets and never
// reads, except those of a wire type: a codec reads all its fields.
func (r *production) writeOnlyFields() []string {
	wire := r.wireTypes()
	return r.flagFields(func(st *types.Struct, f *types.Var) bool {
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
	{"exports", "is exported but only tests reference it: move it into a _test.go file, delete it", (*production).testOnlyExports},
	{"fields", "is a field that no production file sets: delete it", (*production).testOnlyFields},
	{"reads", "is a field that production sets and never reads: give it a reader, delete it", (*production).writeOnlyFields},
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
// (because production now uses, sets or reads it, or it is gone), and
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
		t.Errorf("allow-list entry %s is stale: production code references, sets or reads it, or it is gone", key)
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
		"exports": {"lib.Asserted", "lib.Receiver", "lib.Shape.Name"},
		"fields":  {"lib.Config.Mode", "lib.Config.Verbose"},
		"reads":   {"lib.Stats.Misses"},
	}
	if !reflect.DeepEqual(missing, want) {
		t.Errorf("flagged %v, want %v", missing, want)
	}
	if !slices.Equal(stale, []string{"lib.Gone"}) {
		t.Errorf("stale entries %v, want [lib.Gone]", stale)
	}
}
