package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModuleRoot walks upward from dir to the nearest directory containing a
// go.mod and returns it along with the declared module path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// Load resolves go-style package patterns ("./...", "./internal/obs/...",
// "./cmd/repolint") against the module rooted at root and parses every
// matching package. Like the go tool, it skips directories named testdata
// or vendor and hidden directories. Test files are loaded and marked; it
// is up to each analyzer whether they are in scope.
func Load(root, modPath string, patterns []string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		switch {
		case pat == "./..." || pat == "...":
			if err := walkGoDirs(root, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(root, strings.TrimSuffix(pat, "/..."))
			if err := walkGoDirs(base, dirs); err != nil {
				return nil, err
			}
		default:
			dirs[filepath.Join(root, pat)] = true
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := LoadDir(dir, importPathFor(root, modPath, dir))
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkg.Resolver = ModuleResolver(root, modPath)
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// ModuleResolver maps import paths under modPath to their directories
// under root, for type-checking module-local dependencies from source.
func ModuleResolver(root, modPath string) func(string) (string, bool) {
	return func(importPath string) (string, bool) {
		if importPath == modPath {
			return root, true
		}
		rel, ok := strings.CutPrefix(importPath, modPath+"/")
		if !ok {
			return "", false
		}
		return filepath.Join(root, filepath.FromSlash(rel)), true
	}
}

// importPathFor maps a directory under root to its import path.
func importPathFor(root, modPath, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// walkGoDirs records every directory under base containing at least one
// .go file, skipping testdata, vendor, and hidden directories.
func walkGoDirs(base string, out map[string]bool) error {
	return filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			out[filepath.Dir(p)] = true
		}
		return nil
	})
}

// LoadDir parses every .go file directly inside dir into one Package with
// the given import path. A directory with no .go files yields (nil, nil).
// In-package and external (_test-suffixed) test files are both loaded
// into the same Package, marked Test; the package name is taken from the
// non-test files when any exist.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkg := &Package{Path: filepath.ToSlash(importPath), Dir: dir, Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fp := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, fp, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", fp, err)
		}
		sf := &SourceFile{
			Path: fp,
			Test: strings.HasSuffix(e.Name(), "_test.go") || strings.HasSuffix(f.Name.Name, "_test"),
			AST:  f,
		}
		sf.collectIgnores(fset)
		pkg.Files = append(pkg.Files, sf)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	pkg.Name = pkg.Files[0].AST.Name.Name
	for _, sf := range pkg.Files {
		if !sf.Test {
			pkg.Name = sf.AST.Name.Name
			break
		}
	}
	return pkg, nil
}
