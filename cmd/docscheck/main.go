// Command docscheck asserts that every exported symbol in the given
// package directories carries a doc comment, so godoc never regresses
// to bare signatures. It is wired into `make docs-check` (and CI) over
// every package under internal/. Test files are skipped. Exit status is non-zero if any exported symbol is
// undocumented, with one "file:line: symbol" diagnostic per miss.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck <pkg-dir> [pkg-dir...]")
		os.Exit(2)
	}
	misses := 0
	for _, dir := range os.Args[1:] {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				misses += checkFile(fset, f)
			}
		}
	}
	if misses > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d exported symbol(s) without doc comments\n", misses)
		os.Exit(1)
	}
}

// checkFile reports every exported top-level symbol of f lacking a doc
// comment and returns the miss count.
func checkFile(fset *token.FileSet, f *ast.File) int {
	misses := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), kind, name)
		misses++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Functions and methods alike: an exported method on an
			// unexported type still surfaces through interfaces.
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped decl covers every
					// name in the group (idiomatic for var/const
					// blocks); line comments count too.
					for _, name := range sp.Names {
						if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							report(name.Pos(), "value", name.Name)
						}
					}
				}
			}
		}
	}
	// Interface methods are contract surface — a bare method name in an
	// exported interface is an undocumented obligation on implementors.
	// (Struct fields are deliberately not required: grouped fields with
	// a shared comment are idiomatic throughout this repo.)
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() {
			return true
		}
		if t, ok := ts.Type.(*ast.InterfaceType); ok {
			for _, m := range t.Methods.List {
				for _, name := range m.Names {
					if name.IsExported() && m.Doc == nil && m.Comment == nil {
						report(name.Pos(), "method", ts.Name.Name+"."+name.Name)
					}
				}
			}
		}
		return true
	})
	return misses
}
