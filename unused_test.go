package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowlist names, as "Recv.Name" or "Name", the top-level
// functions and methods that TestNoTestOnlyFunctions accepts although no
// non-test identifier names them, each with the reason it stays.
var testOnlyAllowlist = map[string]string{
	"Env.WithRand": "tests in agreement, byzantine and counting step protocols on standalone envs, " +
		"and Env's stream is unexported",
	"Beacon.AppendPath": "the transcript pins in sim's tests hash each delivered beacon's path, " +
		"and Beacon's chain is unexported",
	"Engine.SetEdgeCapacity": "the CONGEST per-edge bandwidth bound, enforced on every admission path; " +
		"counting's capacity tests run Algorithm 2 under it and sim's transcript pins fix it at 512 bits",
}

// TestNoTestOnlyFunctions fails when a top-level function or method in
// a non-test file of the module, perfbench/ or examples/ has a name that
// no identifier outside its own declaration uses. Such code is reached
// only from tests (or from nowhere): delete it, or move it into the
// _test.go file of the test that needs it. The check is by name, so a
// function whose name is shared with any other identifier (N, Graph,
// Path) passes unseen; it catches the distinctive names, which is where
// test-only capabilities accumulate. Directories starting with "." (the
// benchmark's exported trees under .bench_build) and testdata are
// skipped.
func TestNoTestOnlyFunctions(t *testing.T) {
	type decl struct {
		key, pos string
		self     int // uses of the name inside the declaration itself
	}
	var decls []decl
	uses := map[string]int{} // identifier uses, declared names excluded
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			key := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = recvName(fd.Recv.List[0].Type) + "." + key
			}
			self := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fd.Name && id.Name == fd.Name.Name {
					self++
				}
				return true
			})
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String(), self})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if name == "main" || name == "init" || name == "_" || uses[name] > d.self {
			continue
		}
		if _, ok := testOnlyAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		t.Errorf("%s: %s is named by no non-test identifier (delete it, move it into a _test.go file, or allowlist it with a reason)", d.pos, d.key)
	}
	for key := range testOnlyAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s is stale: a non-test identifier names it, or it no longer exists", key)
		}
	}
}

// recvName returns the base type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
