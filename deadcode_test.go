//go:build deadcode

package thymesim

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDeadCode is a ratchet on code that nothing runs. It type-checks every
// non-test package of the module and of bench/, then walks references from
// the roots (every main package's main, every init) and lists each
// package-level declaration it never reaches. A declaration missing from
// testdata/deadcode_allow.txt fails the test, and so does an allowlist entry
// that is reachable again or no longer exists.
//
// Methods are reached through direct calls or, conservatively, through any
// interface the program mentions that their reachable receiver implements.
// Zero-argument methods are exempt, and count as reached with their
// receiver: they are the accessors tests read to observe a live mechanism,
// and the String/Error/Len methods the standard library calls.
//
// Run it with `make deadcode` (go test -tags deadcode -run TestDeadCode .).
func TestDeadCode(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader()
	if err := l.loadTree("thymesim", root, "bench"); err != nil {
		t.Fatal(err)
	}
	if err := l.loadTree("thymesim/bench", filepath.Join(root, "bench"), ""); err != nil {
		t.Fatal(err)
	}
	dead := l.unreachable()

	allow, err := readAllowlist(filepath.Join(root, "testdata", "deadcode_allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if _, ok := allow[name]; !ok {
			t.Errorf("unreachable: %s (delete it, or allowlist it with a reason)", name)
		}
		delete(allow, name)
	}
	var stale []string
	for name := range allow {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("stale allowlist entry: %s is reachable or gone", name)
	}
}

// readAllowlist parses "name reason..." lines; blank lines and # comments
// are skipped, and every entry must give a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// pkg is one type-checked package with the syntax of its non-test files.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*pkg
	order []*pkg
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*pkg{},
	}
}

// loadTree registers every package directory under dir as module path
// prefix (skipping the subdirectory skip, a module of its own, and
// testdata) and type-checks it.
func (l *loader) loadTree(prefix, dir, skip string) error {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		base := d.Name()
		if p != dir && (rel == skip || base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		path := prefix
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = p
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return err
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return err
		}
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirs[path]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unreachable returns the sorted names of package-level declarations in the
// root module that no root reaches.
func (l *loader) unreachable() []string {
	refs := map[types.Object][]types.Object{} // declaration -> objects it uses
	var roots []types.Object
	var named []*types.Named // every package-level named type
	ifaces := map[*types.Interface]bool{}

	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, p := range l.order {
		for _, tv := range p.info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						addIface(tup.At(i).Type())
					}
				}
			}
		}
		for _, obj := range p.info.Uses {
			addIface(obj.Type())
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				objs := declObjects(p, decl)
				for _, obj := range objs {
					switch o := obj.(type) {
					case *types.Func:
						if o.Type().(*types.Signature).Recv() == nil && (o.Name() == "init" || o.Name() == "main" && p.types.Name() == "main") {
							roots = append(roots, obj)
						}
					case *types.TypeName:
						if n, ok := o.Type().(*types.Named); ok {
							named = append(named, n)
						}
					}
				}
				// Every object a declaration's syntax uses is a reference
				// of each object it declares (a var group shares its
				// initializers, which is conservative).
				var used []types.Object
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil {
							used = append(used, origin(obj))
						}
					}
					return true
				})
				for _, obj := range objs {
					refs[obj] = append(refs[obj], used...)
				}
			}
		}
	}

	live := map[types.Object]bool{}
	liveTypes := map[*types.Named]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if obj == nil || live[obj] {
			return
		}
		live[obj] = true
		work = append(work, obj)
	}
	for _, r := range roots {
		mark(r)
	}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range refs[obj] {
				mark(u)
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok {
					liveTypes[n] = true
				}
			}
			// A method keeps its receiver type alive.
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if n := namedOf(recv.Type()); n != nil {
						mark(n.Obj())
					}
				}
			}
		}
		// Methods a live type contributes to an interface the program
		// mentions may be called through that interface.
		before := len(live)
		for _, n := range named {
			if !liveTypes[n] {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(n)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				if fn := ms.At(i).Obj(); isAccessor(fn) {
					mark(origin(fn))
				}
			}
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						mark(origin(sel.Obj()))
					}
				}
			}
		}
		if len(live) == before && len(work) == 0 {
			break
		}
	}

	var dead []string
	for _, p := range l.order {
		if !strings.HasPrefix(p.path, "thymesim/") || strings.HasPrefix(p.path, "thymesim/bench") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, obj := range declObjects(p, decl) {
					if live[obj] || obj.Name() == "_" {
						continue
					}
					if isAccessor(obj) {
						continue
					}
					dead = append(dead, declName(obj))
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// isAccessor reports a zero-argument method.
func isAccessor(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && sig.Params().Len() == 0
}

func declObjects(p *pkg, decl ast.Decl) []types.Object {
	var objs []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		objs = append(objs, p.info.Defs[d.Name])
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				objs = append(objs, p.info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if obj := p.info.Defs[id]; obj != nil {
						objs = append(objs, obj)
					}
				}
			}
		}
	}
	return objs
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// declName is "importpath.Name" or "importpath.Type.Method", with the
// module prefix dropped.
func declName(obj types.Object) string {
	path := strings.TrimPrefix(obj.Pkg().Path(), "thymesim/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return path + "." + namedOf(recv.Type()).Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}
