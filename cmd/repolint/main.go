// Command repolint runs the repository's custom lint suite (see
// tools/analyzers): the nodeterm determinism rules over the pipeline
// packages and the runerr error-handling rules over the cmd binaries.
//
// Usage:
//
//	repolint            # lint the enclosing module, exit 1 on findings
//	repolint -selftest  # prove the analyzers still catch the known-bad fixtures
//
// The tool type-checks everything from source with the standard library
// only, so it runs in environments with no module cache or network.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/analyzers"
)

// errFindings marks the "lint ran fine, the code has findings" outcome,
// which exits 1; every other error is an operational failure and exits 2.
var errFindings = errors.New("lint findings")

func main() {
	log.SetFlags(0)
	log.SetPrefix("repolint: ")
	if err := run(); err != nil {
		if errors.Is(err, errFindings) {
			os.Exit(1)
		}
		log.Fatal(err)
	}
}

func run() error {
	selftest := flag.Bool("selftest", false, "verify the analyzers flag the built-in broken fixtures, then exit")
	flag.Parse()

	if *selftest {
		if err := analyzers.SelfTest(); err != nil {
			return err
		}
		fmt.Println("repolint: selftest ok")
		return nil
	}

	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	paths, err := discoverPackages(root)
	if err != nil {
		return err
	}

	ld := newLoader(root)
	var diags []analyzers.Diagnostic
	for _, path := range paths {
		if !analyzers.Applies(analyzers.All, path) {
			continue
		}
		lp := ld.load(path)
		if lp.err != nil {
			return fmt.Errorf("%s: %w", path, lp.err)
		}
		pass := &analyzers.Pass{
			Fset:  ld.fset,
			Path:  path,
			Files: lp.files,
			Pkg:   lp.pkg,
			Info:  ld.info,
		}
		diags = append(diags, analyzers.Run(pass, analyzers.All)...)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		return fmt.Errorf("%d finding(s): %w", len(diags), errFindings)
	}
	fmt.Printf("repolint: %d packages clean\n", len(paths))
	return nil
}

// moduleName is the module this linter is built for; refusing to lint a
// different module catches running it from the wrong directory.
const moduleName = "repro"

// findModuleRoot walks up from the working directory to the go.mod that
// declares module repro.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(strings.TrimPrefix(line, "module")) == moduleName &&
					strings.HasPrefix(line, "module") {
					return dir, nil
				}
			}
			return "", fmt.Errorf("go.mod at %s does not declare module %s", dir, moduleName)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// discoverPackages returns the sorted import paths of every Go package
// directory under the module root, skipping hidden and testdata trees.
func discoverPackages(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(root, p)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, moduleName)
				} else {
					paths = append(paths, moduleName+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

// loader type-checks module packages from source, resolving module-internal
// imports recursively and everything else through the standard library's
// source importer. One FileSet and one types.Info span all packages so a
// Pass can look up any node the analyzers encounter.
type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*loadedPkg
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	err   error
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*loadedPkg{},
	}
}

// Import makes the loader a types.Importer for module-internal paths.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != moduleName && !strings.HasPrefix(path, moduleName+"/") {
		return l.std.Import(path)
	}
	lp := l.load(path)
	return lp.pkg, lp.err
}

func (l *loader) load(path string) *loadedPkg {
	if lp, ok := l.pkgs[path]; ok {
		return lp
	}
	// Mark in-progress before recursing so an import cycle fails with a
	// clear error instead of infinite recursion.
	lp := &loadedPkg{err: fmt.Errorf("import cycle through %s", path)}
	l.pkgs[path] = lp

	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, moduleName+"/")))
	if path == moduleName {
		dir = l.root
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		lp.err = err
		return lp
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Type-check the files the go command would build here: a file
		// excluded by its build constraints (a per-OS variant) would
		// otherwise redeclare its siblings' names.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			lp.err = err
			return lp
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			lp.err = err
			return lp
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		lp.err = fmt.Errorf("no Go files in %s", dir)
		return lp
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	lp.pkg, lp.files, lp.err = pkg, files, err
	return lp
}
