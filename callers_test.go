package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ecdfOracle is why the ECDF stays: it is the oracle of tests in three
// packages, and it needs a test-only home they can all import first.
const ecdfOracle = "the probe-sketch, analysis and report tests' oracle"

// uncalledButKept names the exported operations under internal/ that no
// program calls but tests read ground truth or an oracle through. Every
// other exported function or method must have a caller in a non-test
// file of this module or of the bench/ module.
var uncalledButKept = map[string]string{
	"analysis.AggregatesFromDataset": "entry point for logs gathered elsewhere; the stream-vs-reference tests derive aggregates through it",
	"analysis.Classify":              "the record-level classifier the reference oracle and tests compare against",
	"appscript.Runtime.Installed":    "tests read which scripts a runtime installed",
	"c3.Store.AddHash":               "tests index known hashes directly",
	"geo.MedianDistanceKm":           "the oracle of the Figure 5 radius tests",
	"netsim.AddressSpace.CityOf":     "tests read an address's ground-truth city",
	"netsim.AddressSpace.IsProxy":    "tests read an address's ground-truth proxy flag",
	"netsim.AddressSpace.IsTor":      "tests read an address's ground-truth Tor flag",
	"outlets.Outlet.Site":            "tests read an outlet's site",
	"simtime.Event.Name":             "every scheduling call passes this label; dropping the labels is a separate change",
	"simtime.Scheduler.RunFor":       "tests advance a scheduler by a duration",
	"simtime.Scheduler.Step":         "tests run a scheduler one event at a time",
	"simtime.TriggerWheel.Buckets":   "tests read how many trigger buckets a wheel holds",
	"stats.NewECDF":                  ecdfOracle,
	"stats.ECDF.Max":                 ecdfOracle,
	"stats.ECDF.Min":                 ecdfOracle,
	"stats.ECDF.N":                   ecdfOracle,
	"stats.ECDF.Points":              ecdfOracle,
	"stats.ECDF.Quantile":            ecdfOracle,
	"stats.ECDF.Sample":              ecdfOracle,
	"stats.LatencyHist.Count":        "tests read how many samples a histogram holds",
	"stats.ProbeSketch.Points":       "tests compare a sketch's probe points with the ECDF oracle",
	"webmail.Service.AccessVersion":  "tests read an account's activity-page version",
	"webmail.Service.Accounts":       "tests read the ground-truth account list",
	"webmail.Service.ActivityPage":   "the oracle a session's activity page is compared against",
	"webmail.Service.Counts":         "tests read ground-truth message counts",
	"webmail.Service.Journal":        "tests read the ground-truth event journal",
	"webmail.Service.Password":       "tests read an account's ground-truth password",
	"webmail.Service.Suspended":      "tests read an account's ground-truth suspension",
	"webmail.Service.Version":        "tests read an account's mailbox version",
	"wire.Server.ServeConn":          "the per-connection entry point the fuzz drivers call",
}

// TestExportedOperationsHaveCallers type-checks every non-test file of
// this module and of bench/ and fails on each exported function or
// method declared under internal/ that no non-test file uses. A use
// through a generic instantiation counts, and so does a method whose
// type implements an interface, declared in the program or in an
// imported standard package, that has a method of that name.
func TestExportedOperationsHaveCallers(t *testing.T) {
	p := &program{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, root := range []string{".", "bench"} {
		if err := p.walk(root); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range p.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	ifaces := p.interfaces()

	var missing []string
	exempted := map[string]bool{}
	for _, fn := range p.declared {
		if used[fn] || implementsNamed(fn, ifaces) {
			continue
		}
		name := operationName(fn)
		if _, ok := uncalledButKept[name]; ok {
			exempted[name] = true
			continue
		}
		missing = append(missing, name)
	}
	for name := range uncalledButKept {
		if !exempted[name] {
			t.Errorf("%s: exempt, but it is called or gone; drop the exemption", name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s: exported, but no non-test file calls it", name)
	}
}

// program type-checks the packages of both modules from source and
// imports the standard library from source too.
type program struct {
	fset     *token.FileSet
	pkgs     map[string]*types.Package
	std      types.ImporterFrom
	info     *types.Info
	declared []*types.Func
}

func (p *program) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if rel, ok := strings.CutPrefix(path, "repro"); ok && (rel == "" || rel[0] == '/') {
		return p.check(path, "."+filepath.FromSlash(rel))
	}
	return p.std.ImportFrom(path, dir, mode)
}

// walk type-checks every package of the module rooted at root. Like the
// go command it skips testdata and names starting with "." or "_", and
// it stops at a nested module. bench/out holds bench/run.sh's build
// cache.
func (p *program) walk(root string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root {
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
				dir == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		_, err = p.Import(path.Join("repro", filepath.ToSlash(dir)))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
}

func (p *program) check(path, dir string) (*types.Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	if strings.HasPrefix(path, "repro/internal/") {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					p.declared = append(p.declared, p.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
	}
	return pkg, nil
}

// interfaces returns every interface with methods that the program
// declares or uses, and every one declared in a standard package the
// program imports.
func (p *program) interfaces() []*types.Interface {
	var out []*types.Interface
	have := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !have[it] {
			have[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, tv := range p.info.Types {
		add(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg)
	}
	return out
}

// implementsNamed reports whether fn is a method whose receiver type,
// or a pointer to it, implements an interface with a method of fn's
// name.
func implementsNamed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// operationName names fn as pkg.Func or pkg.Type.Method.
func operationName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}
