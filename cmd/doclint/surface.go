package main

import (
	"bufio"
	"fmt"
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
)

// surfaceAllow names the exported functions and methods of internal
// packages that stay although no non-test file of the module references
// them, each with the reason it stays. A key is the package's directory
// relative to the module root, a dot, and the function's name or
// Type.Method. An entry that the module now uses, or whose name no longer
// exists, fails the lint like a finding does.
var surfaceAllow = map[string]string{
	"internal/addr.MustParseV4":                 "tests of eight packages spell constant addresses with it",
	"internal/addr.MustParseVN":                 "addr's and packet's tests spell constant IPvN addresses with it",
	"internal/rib.TableVN.Delete":               "Table4.Delete's twin; bgpvn's tests withdraw native routes through it",
	"internal/topology.LoadASRelationshipsFile": "the real-topology loader ROADMAP item 12 keeps as the door for CAIDA data",
	"internal/econ.SettlementRevenue":           "ROADMAP item 10 makes it E9's one revenue rule",
}

// module is every package of a Go module, type-checked from its non-test
// files.
type module struct {
	root string
	fset *token.FileSet
	pkgs map[string]*modPkg // by import path
	std  types.Importer
}

// modPkg is one type-checked package of a module.
type modPkg struct {
	dir   string // relative to the module root, slash-separated
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

// checkSurface type-checks every non-test file of the module rooted at
// root and returns one line per exported function or method declared in
// a package under dir that no non-test file of the module references,
// and one per stale allow entry. A method is exempt when its receiver
// type implements an interface of the module or the standard library
// that declares it: a call through the interface does not name the
// method.
func checkSurface(root, dir string, allow map[string]string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		mp := m.pkgs[p]
		if mp.err != nil {
			return nil, mp.err
		}
		for _, obj := range mp.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
		addIfaces(mp.pkg)
	}

	var findings []string
	declared := map[string]bool{}
	prefix := strings.Trim(filepath.ToSlash(dir), "/")
	for _, p := range paths {
		mp := m.pkgs[p]
		if mp.dir != prefix && !strings.HasPrefix(mp.dir, prefix+"/") {
			continue
		}
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || !d.Name.IsExported() {
					continue
				}
				fn := mp.info.Defs[d.Name].(*types.Func)
				name := mp.dir + "." + d.Name.Name
				recv := fn.Type().(*types.Signature).Recv()
				if recv != nil {
					named := receiverNamed(recv.Type())
					name = mp.dir + "." + named.Obj().Name() + "." + d.Name.Name
					if declaresMethod(named, d.Name.Name, ifaces) {
						declared[name] = true // reached through the interface
						continue
					}
				}
				declared[name] = used[fn]
				if used[fn] || allow[name] != "" {
					continue
				}
				findings = append(findings, fmt.Sprintf("%s: %s: no non-test file of the module references it",
					m.rel(d.Pos()), name))
			}
		}
	}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		isUsed, ok := declared[name]
		switch {
		case strings.TrimSpace(allow[name]) == "":
			findings = append(findings, fmt.Sprintf("allow entry %s: gives no reason", name))
		case !ok:
			findings = append(findings, fmt.Sprintf("allow entry %s: no such function or method", name))
		case isUsed:
			findings = append(findings, fmt.Sprintf("allow entry %s: now referenced by non-test code", name))
		}
	}
	return findings, nil
}

// receiverNamed is the named type behind a method's receiver. A generic
// receiver comes instantiated with the method's own type parameters, so
// asking whether it implements an interface is defined.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// declaresMethod reports whether named, or a pointer to it, implements
// one of ifaces that declares a method called name.
func declaresMethod(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != name {
				continue
			}
			if types.Implements(named, it) || types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// loadModule parses and type-checks every package of the module at root.
// Packages outside the module come from the compiler's export data.
func loadModule(root string) (*module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		mp := &modPkg{dir: rel}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			mp.files = append(mp.files, f)
		}
		m.pkgs[path.Join(modPath, rel)] = mp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range m.pkgs {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Import type-checks a package of the module on first use and hands any
// other import to the compiler's export data.
func (m *module) Import(p string) (*types.Package, error) {
	mp, ok := m.pkgs[p]
	if !ok {
		return m.std.Import(p)
	}
	if mp.info != nil {
		return mp.pkg, mp.err
	}
	mp.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	mp.pkg, mp.err = conf.Check(p, m.fset, mp.files, mp.info)
	return mp.pkg, mp.err
}

// rel renders a position with its file relative to the module root.
func (m *module) rel(pos token.Pos) string {
	p := m.fset.Position(pos)
	if r, err := filepath.Rel(m.root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(r)
	}
	return p.String()
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
