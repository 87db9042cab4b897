// Command doclint enforces the repository's documentation floor: every
// Go package under the given roots must carry a package-level doc
// comment on at least one of its non-test files, and packages named with
// -exported must additionally document every exported top-level
// identifier (functions, methods on exported types, and each exported
// type, const and var spec). CI runs it as
//
//	go run ./cmd/doclint -exported internal/core,internal/trace,internal/redirect,internal/forward,internal/underlay,internal/anycast internal cmd .
//
// and fails the build listing each violation. Package comments are the
// map from code to the paper (each internal package states which section
// it implements), and the -exported packages are the simulator's API
// surface — an undocumented identifier there is treated as a build
// break, not a style nit.
//
// With -surface DIR it runs the surface check instead (surface.go): it
// type-checks every non-test file of the module in the current directory
// and lists each exported function or method of a package under DIR that
// none of them references. CI runs it as
//
//	go run ./cmd/doclint -surface internal
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	exported := flag.String("exported", "", "comma-separated package dirs whose exported identifiers must all carry doc comments")
	surface := flag.String("surface", "", "instead of the doc checks, report every exported function or method under this dir that no non-test file of the module references")
	flag.Parse()
	if *surface != "" {
		findings, err := checkSurface(".", *surface, surfaceAllow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "doclint: %s\n", f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "doclint: %d findings\n", len(findings))
			os.Exit(1)
		}
		return
	}
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"internal", "cmd", "."}
	}
	var violations []string
	seen := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			// "." as a root must not recurse into the other roots twice.
			if root == "." && path != "." {
				return filepath.SkipDir
			}
			if seen[path] {
				return nil
			}
			seen[path] = true
			ok, hasGo, err := packageDocumented(path)
			if err != nil {
				return err
			}
			if hasGo && !ok {
				violations = append(violations, fmt.Sprintf("package %s has no package doc comment", path))
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
	}
	if *exported != "" {
		for _, dir := range strings.Split(*exported, ",") {
			dir = strings.TrimSpace(dir)
			if dir == "" {
				continue
			}
			vs, err := exportedDocumented(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
				os.Exit(2)
			}
			violations = append(violations, vs...)
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "doclint: %s\n", v)
		}
		os.Exit(1)
	}
}

// packageDocumented reports whether dir contains Go files (tests
// excluded) and whether any of them carries a package doc comment.
func packageDocumented(dir string) (documented, hasGo bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		hasGo = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return false, true, err
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, true, nil
		}
	}
	return false, hasGo, nil
}

// exportedDocumented lists every exported top-level identifier in dir's
// non-test files that lacks a doc comment. Methods are checked when the
// receiver's base type is itself exported; in grouped const/var/type
// declarations a doc comment on the group covers every spec in it.
func exportedDocumented(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var violations []string
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !receiverExported(d) {
					continue
				}
				if !hasDoc(d.Doc) {
					violations = append(violations, fmt.Sprintf("%s: exported %s %s is undocumented",
						fset.Position(d.Pos()), funcKind(d), funcName(d)))
				}
			case *ast.GenDecl:
				groupDoc := hasDoc(d.Doc)
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !groupDoc && !hasDoc(s.Doc) {
							violations = append(violations, fmt.Sprintf("%s: exported type %s is undocumented",
								fset.Position(s.Pos()), s.Name.Name))
						}
					case *ast.ValueSpec:
						if !groupDoc && !hasDoc(s.Doc) && !hasDoc(s.Comment) {
							for _, id := range s.Names {
								if id.IsExported() {
									violations = append(violations, fmt.Sprintf("%s: exported %s %s is undocumented",
										fset.Position(s.Pos()), strings.ToLower(d.Tok.String()), id.Name))
								}
							}
						}
					}
				}
			}
		}
	}
	return violations, nil
}

// hasDoc reports whether a comment group holds actual text.
func hasDoc(c *ast.CommentGroup) bool {
	return c != nil && strings.TrimSpace(c.Text()) != ""
}

// receiverExported reports whether d is a plain function or a method
// whose receiver's base type name is exported — methods on unexported
// types are internal API no matter how their names are spelled.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// funcKind labels a FuncDecl for the violation message.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// funcName renders Name or Type.Name for methods.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}
