// Command deadcode fails when a function under internal/ is reached by no
// binary of the repository and is not listed in the allow-list.
//
// Usage, from anywhere inside the module:
//
//	go run ./scripts/deadcode
//
// Every package main under cmd/, examples/ and scripts/ is linked, plus the
// perfbench module from its own directory, with inlining off (an inlined
// helper has no symbol of its own) and the linker's dependency dump on. A
// function is reached when its symbol appears on either side of a dumped
// edge; closures, method values and generic instantiations count for the
// function that declares them. The declarations come from the non-test
// files under internal/, read with go/ast.
//
// allow.txt lists the functions kept on purpose, one per line as
// "pkg.Func  # reason" or "pkg.(*Type).Method  # reason". The command exits
// 1 when an unreached function is not listed, or when a listed entry is now
// reached or no longer declared, and 2 when a build fails.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}

// decl is one function declaration under internal/.
type decl struct {
	name  string // as written in allow.txt: pkg.F, pkg.T.M or pkg.(*T).M
	pos   string // file:line
	lines int
}

func run() error {
	root, module, err := moduleRoot()
	if err != nil {
		return err
	}
	prefix := module + "/internal/"
	decls, err := declarations(filepath.Join(root, "internal"))
	if err != nil {
		return err
	}
	reached := map[string]bool{}
	roots, err := mainPackages(root, "cmd", "examples", "scripts")
	if err != nil {
		return err
	}
	for _, dir := range append(roots, filepath.Join(root, "perfbench")) {
		if err := linkDeps(dir, prefix, reached); err != nil {
			return err
		}
	}
	allowPath := filepath.Join(root, "scripts", "deadcode", "allow.txt")
	allow, err := readAllow(allowPath)
	if err != nil {
		return err
	}

	var dead, allowed []decl
	deadLines, totalLines := 0, 0
	declared := map[string]bool{}
	for key, ds := range decls {
		for _, d := range ds {
			totalLines += d.lines
			declared[d.name] = true
			if reached[key] {
				continue
			}
			deadLines += d.lines
			if allow[d.name] {
				allowed = append(allowed, d)
			} else {
				dead = append(dead, d)
			}
		}
	}
	var stale []string
	for name := range allow {
		switch {
		case !declared[name]:
			stale = append(stale, name+": no longer declared")
		case reached[matchKey(name)]:
			stale = append(stale, name+": now reached by a binary")
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	sort.Strings(stale)

	fmt.Printf("deadcode: %d binaries linked; %d of %d function lines under internal/ unreached, in %d functions (%d allow-listed)\n",
		len(roots)+1, deadLines, totalLines, len(dead)+len(allowed), len(allowed))
	for _, d := range dead {
		fmt.Printf("unreached: %s  (%s, %d lines)\n", d.name, d.pos, d.lines)
	}
	for _, s := range stale {
		fmt.Printf("stale allow-list entry: %s\n", s)
	}
	if len(dead) > 0 || len(stale) > 0 {
		fmt.Println("delete each unreached function or list it with a reason in scripts/deadcode/allow.txt; drop stale entries")
		os.Exit(1)
	}
	return nil
}

// moduleRoot returns the directory and path of the enclosing module.
func moduleRoot() (dir, module string, err error) {
	lines, err := goList("", "-m", "-f", "{{.Dir}}\n{{.Path}}")
	if err != nil {
		return "", "", err
	}
	if len(lines) != 2 {
		return "", "", fmt.Errorf("go list -m: want one module, got %q", lines)
	}
	return lines[0], lines[1], nil
}

// mainPackages returns the directory of every package main under the
// given top-level directories of root.
func mainPackages(root string, tops ...string) ([]string, error) {
	args := []string{"-f", `{{if eq .Name "main"}}{{.Dir}}{{end}}`}
	for _, top := range tops {
		args = append(args, "./"+top+"/...")
	}
	return goList(root, args...)
}

// goList runs go list in dir and returns its non-empty output lines.
func goList(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(args, " "), err)
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// linkDeps links the main package in dir and marks every function under
// prefix that the linker's dependency dump names.
func linkDeps(dir, prefix string, reached map[string]bool) error {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull, ".")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %s: %w\n%s", dir, err, out.String())
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			if key, ok := normalize(sym, prefix); ok {
				reached[key] = true
			}
		}
	}
	return sc.Err()
}

// metadata matches the per-function data symbols the linker deduplicates by
// content and so shares across functions: their name can belong to a
// function that is not reached at all.
var metadata = regexp.MustCompile(`^(arginfo[0-9]*|argliveinfo|stkobj|args_stackmap|opendefer|wrapinfo)$`)

// synthetic matches the name segments of compiler-made functions that live
// inside a declared one: closures, go/defer wrappers and nested closures.
var synthetic = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// normalize maps a linker symbol to the match key of the function under
// prefix that declares it: "pkg.F" or "pkg.T.M" for a method on T or *T.
// It reports false for symbols that are not code under prefix or that are
// shared metadata.
func normalize(sym, prefix string) (string, bool) {
	// Type arguments may contain spaces; annotations follow the first
	// space outside them.
	sym, _, _ = strings.Cut(stripBrackets(strings.TrimSpace(sym)), " ")
	rest, ok := strings.CutPrefix(sym, prefix)
	if !ok {
		return "", false
	}
	pkg, name, ok := strings.Cut(rest, ".")
	if !ok || name == "" || name[0] == '.' {
		return "", false // package-level data: ..inittask, ..stmp_N, ..dict
	}
	segs := strings.Split(name, ".")
	if metadata.MatchString(segs[len(segs)-1]) {
		return "", false
	}
	for i, s := range segs {
		s, _, _ = strings.Cut(s, "-") // method values (-fm), range-over-func bodies (-rangeN)
		segs[i] = s
	}
	for len(segs) > 1 && synthetic.MatchString(segs[len(segs)-1]) {
		segs = segs[:len(segs)-1]
	}
	return matchKey(pkg + "." + strings.Join(segs, ".")), true
}

// matchKey folds a pointer receiver into its type name: Go forbids a
// method name on both T and *T, so pkg.T.M identifies either.
func matchKey(name string) string {
	return strings.NewReplacer("(*", "", ")", "").Replace(name)
}

// stripBrackets removes type-argument lists, nested ones included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations parses the non-test Go files under dir and returns their
// function declarations by match key.
func declarations(dir string) (map[string][]decl, error) {
	out := map[string][]decl{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		for _, x := range af.Decls {
			fn, ok := x.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = pkg + "." + receiver(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			out[matchKey(name)] = append(out[matchKey(name)], decl{
				name:  name,
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(path[len(filepath.Dir(dir))+1:]), start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// receiver renders a receiver type as the linker names it, without type
// parameters: T or (*T).
func receiver(t ast.Expr) string {
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// readAllow parses allow.txt: one "name  # reason" per line; blank lines
// and lines starting with # are skipped. Every entry needs a reason.
func readAllow(path string) (map[string]bool, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if name == "" || reason == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Func  # reason\"", path, i+1)
		}
		allow[name] = true
	}
	return allow, nil
}
