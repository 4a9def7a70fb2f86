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
	"slices"
	"sort"
	"strings"
	"testing"
)

// This file gates the rule that each behaviour has one production path
// and at most one small oracle. It type-checks every non-test file of
// the module, the perfbench harness and examples/ included (they are
// production callers too), and flags each exported package-level
// identifier or method that no production file references: a test-only
// export, which belongs in its package's _test.go files unless the
// allow-list below says why it stays. The same load pins which
// production packages may import the two leaf subsystems.

// modulePath is the import path of the module rooted at this directory;
// perfbench is a module of its own that resolves repro to it.
const modulePath = "repro"

// The §3 models are reproduced by their tests; experiments read only
// the parts the tables print.
const (
	specModel = "§3.1–§3.9 specification model: its tests reproduce the paper's construction; E7 reads only the phase calculator"
	mechModel = "§3.2 mechanism substrate: its tests reproduce Definition 5 and Proposition 2(i) over the FPSS adapter"
)

// testOnlyAllowed lists the exported identifiers that only tests
// reference, each with the reason it stays in production code. Keys
// are "<package dir>.<Name>" or "<package dir>.<Type>.<Method>".
var testOnlyAllowed = map[string]string{
	"internal/faithful.MaxTolerableLoss":        "contract constant: the loss threshold other packages' docs cite",
	"internal/fpss.RoutingMechanism.Outcome":    mechModel,
	"internal/fpss.RoutingMechanism.Transfers":  mechModel,
	"internal/fpss.RoutingMechanism.Utility":    mechModel,
	"internal/mech.CheckStrategyproof":          mechModel,
	"internal/mech.VCG.Outcome":                 mechModel,
	"internal/mech.VCG.Transfers":               mechModel,
	"internal/mech.VCG.TruthfulValue":           mechModel,
	"internal/spec.ActionKind.External":         specModel,
	"internal/spec.BuildExtendedFPSS":           specModel,
	"internal/spec.ExtendedFPSSPhases":          specModel,
	"internal/spec.Machine.Action":              specModel,
	"internal/spec.Machine.Actions":             specModel,
	"internal/spec.Machine.States":              specModel,
	"internal/spec.Specification.SubStrategies": specModel,
	"internal/spec.Specification.Trace":         specModel,
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
	pkgs map[string]*prodPackage // by dir relative to the module root
	uses map[types.Object]bool   // objects some production file names
	std  []*types.Package        // the standard packages it imports
}

// loadProduction type-checks every package directory under the module
// root. Module imports resolve to the packages checked here, so uses
// land on the same objects; standard ones go to the source importer.
func loadProduction() (*production, error) {
	// The pure-Go files of cgo packages such as net declare the same
	// API, and reading them needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	r := &production{pkgs: map[string]*prodPackage{}, uses: map[types.Object]bool{}}
	stdSeen := map[*types.Package]bool{}

	var check func(dir string) (*prodPackage, error)
	check = func(dir string) (*prodPackage, error) {
		if p, ok := r.pkgs[dir]; ok {
			return p, nil
		}
		r.pkgs[dir] = nil
		bp, err := build.ImportDir(filepath.FromSlash(dir), 0)
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
		p := &prodPackage{}
		conf := types.Config{Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
			if rel, ok := strings.CutPrefix(path, modulePath+"/"); ok {
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
		if p.pkg, err = conf.Check(modulePath+"/"+dir, fset, files, info); err != nil {
			return nil, err
		}
		r.pkgs[dir] = p
		return p, nil
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == "." {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		_, err = check(filepath.ToSlash(path))
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		r.uses[origin(obj)] = true
	}
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

// testOnlyExports returns, sorted, the key of every exported
// package-level identifier and method of a library package that no
// production file names. A method also counts as used when its type
// satisfies a module or standard interface that names it, since a call
// through the interface names only the interface's method.
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
		}
	}
	sort.Strings(out)
	return out
}

// TestOnePathOneOracle fails on any test-only export missing from the
// allow-list, on any allow-list entry that production now uses or that
// is gone, and on any production import of a pinned leaf package from
// outside its allowed importers.
func TestOnePathOneOracle(t *testing.T) {
	r, err := loadProduction()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("exports", func(t *testing.T) {
		flagged := map[string]bool{}
		for _, key := range r.testOnlyExports() {
			flagged[key] = true
			if _, ok := testOnlyAllowed[key]; !ok {
				t.Errorf("%s is exported but only tests reference it: move it into a _test.go file, delete it, or allow-list it with a reason", key)
			}
		}
		for key := range testOnlyAllowed {
			if !flagged[key] {
				t.Errorf("allow-list entry %s is stale: production code references it, or it is gone", key)
			}
		}
	})

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
