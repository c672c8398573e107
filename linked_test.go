package aware_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unlinkedReasons are the reasons testdata/unlinked.txt may give for keeping
// a function that no binary links: a reference implementation tests hold live
// code to (oracle), an export of the aware facade or something only such an
// export calls (facade), or a function tests call to check live code
// (test-ref).
var unlinkedReasons = map[string]bool{"oracle": true, "facade": true, "test-ref": true}

// TestShippedCodeIsLinked builds every program in the module with the
// linker's dependency dump and fails on any shipped function none of them
// links, unless testdata/unlinked.txt names it with its reason. An entry that
// names a linked or missing function fails too, so the list stays exact.
func TestShippedCodeIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program in the module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH: %v", err)
	}
	pkgs := listPackages(t, goBin)
	outDir := t.TempDir()
	linked := make(map[string]bool)
	for _, p := range pkgs {
		if p.Name != "main" {
			continue
		}
		cmd := exec.Command(goBin, "build", "-gcflags=all=-l", "-ldflags=-dumpdep",
			"-o", filepath.Join(outDir, filepath.Base(p.Dir)), p.ImportPath)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go build %s: %v\n%s", p.ImportPath, err, tail(stderr.String()))
		}
		sc := bufio.NewScanner(&stderr)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			from, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok {
				continue
			}
			// A program's own functions link as main.F.
			for _, sym := range []string{from, to} {
				if name, ok := strings.CutPrefix(sym, "main."); ok {
					sym = p.ImportPath + "." + name
				}
				addLinked(linked, sym)
			}
		}
	}

	allowed := readUnlinked(t, "testdata/unlinked.txt")
	declared := make(map[string]bool)
	var unlinked []string
	for _, p := range pkgs {
		for _, fn := range declaredFuncs(t, p) {
			declared[fn] = true
			if !linked[fn] && allowed[fn] == "" {
				unlinked = append(unlinked, fn)
			}
		}
	}
	sort.Strings(unlinked)
	for _, fn := range unlinked {
		t.Errorf("%s: no program links it; delete it, or list it in testdata/unlinked.txt with its reason", fn)
	}
	for fn := range allowed {
		switch {
		case !declared[fn]:
			t.Errorf("testdata/unlinked.txt: %s is not a declared function", fn)
		case linked[fn]:
			t.Errorf("testdata/unlinked.txt: %s is linked; drop its entry", fn)
		}
	}
}

type goPackage struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

// listPackages returns every package of the module, with the non-test files
// the current platform builds.
func listPackages(t *testing.T, goBin string) []goPackage {
	t.Helper()
	out, err := exec.Command(goBin, "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []goPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// addLinked records a linker symbol and every function it stands for:
// instantiation brackets and the -fm method-value suffix are dropped, and a
// closure (F.func1, F.gowrap1) or a symbol's auxiliary data (F.stkobj) marks
// F, so each prefix that ends at a dot after the package path is recorded.
func addLinked(linked map[string]bool, sym string) {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	linked[s] = true
	for i := len(s) - 1; i > strings.LastIndexByte(s, '/'); i-- {
		if s[i] == '.' {
			linked[s[:i]] = true
		}
	}
}

// declaredFuncs lists a package's non-test function and method declarations
// as linker symbols, leaving out init functions and empty-bodied methods (the
// marker methods that seal an interface).
func declaredFuncs(t *testing.T, p goPackage) []string {
	t.Helper()
	fset := token.NewFileSet()
	var out []string
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			if fd.Recv == nil {
				out = append(out, p.ImportPath+"."+fd.Name.Name)
				continue
			}
			if len(fd.Body.List) == 0 {
				continue
			}
			out = append(out, p.ImportPath+"."+receiver(fd.Recv.List[0].Type)+"."+fd.Name.Name)
		}
	}
	return out
}

// receiver renders a method's receiver type as the linker names it: T or (*T),
// without type parameters.
func receiver(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// readUnlinked parses the allowlist: one "symbol reason" pair a line, with #
// comments and blank lines ignored.
func readUnlinked(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !unlinkedReasons[fields[1]] {
			t.Fatalf("%s:%d: want \"symbol oracle|facade|test-ref\", got %q", path, i+1, line)
		}
		allowed[fields[0]] = fields[1]
	}
	return allowed
}

func tail(s string) string {
	if len(s) > 2000 {
		return s[len(s)-2000:]
	}
	return s
}
