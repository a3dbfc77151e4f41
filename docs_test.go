package cogrid

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docNames are the kinds of name a document may only use, inside a code
// span or fence, for something that exists: a binary, a package, a
// script, a `go run` path, a make target. group 1 is what must exist.
var docNames = []struct {
	re     *regexp.Regexp
	exists func(name string) bool
}{
	{regexp.MustCompile(`\bcmd/([a-z0-9_]+)`), func(n string) bool { return isDir("cmd/" + n) }},
	{regexp.MustCompile(`\binternal/([a-z0-9_]+)`), func(n string) bool { return isDir("internal/" + n) }},
	{regexp.MustCompile(`\bscripts/([a-z0-9_]+\.sh)`), func(n string) bool { return isFile("scripts/" + n) }},
	{regexp.MustCompile(`\bgo run (\./[A-Za-z0-9_/-]+)`), isDir},
	{regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`), isMakeTarget},
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func isMakeTarget(name string) bool {
	mk, err := os.ReadFile("Makefile")
	return err == nil && regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(name)+`:`).Match(mk)
}

// codeOf returns the text of a Markdown document's fenced blocks and
// inline code spans. A span may run over a line break.
func codeOf(doc string) string {
	var code, prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code.WriteString(line + "\n")
		default:
			prose.WriteString(line + "\n")
		}
	}
	// Outside the fences, every second piece between backticks is a span.
	for i, piece := range strings.Split(prose.String(), "`") {
		if i%2 == 1 {
			code.WriteString(strings.Join(strings.Fields(piece), " ") + "\n")
		}
	}
	return code.String()
}

// binaryFlags reads what each binary of cmd/ defines from its source: the
// names of its flag.Xxx("name", ...) definitions and, for benchgrid, the
// values its catalogue gives -fig and -app.
func binaryFlags(t *testing.T) (flags map[string]map[string]bool, studies map[string]map[string]bool) {
	flagDef := regexp.MustCompile(`\bflag\.[A-Z][A-Za-z0-9]*\("([^"]+)"`)
	studyDef := regexp.MustCompile(`\{flag: "(fig|app)", name: "([^"]+)"`)
	flags = map[string]map[string]bool{}
	studies = map[string]map[string]bool{"fig": {"all": true, "none": true}, "app": {"all": true, "none": true}}
	sources, err := filepath.Glob("cmd/*/*.go")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no sources under cmd/: %v", err)
	}
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		bin := path.Base(path.Dir(filepath.ToSlash(src)))
		if flags[bin] == nil {
			flags[bin] = map[string]bool{}
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(raw), -1) {
			flags[bin][m[1]] = true
		}
		if bin == "benchgrid" {
			for _, m := range studyDef.FindAllStringSubmatch(string(raw), -1) {
				studies[m[1]][m[2]] = true
			}
		}
	}
	return flags, studies
}

// undefinedFlags walks the code of a document a line at a time. A word
// whose last path element is a binary of cmd/ (`gridsim`, `cmd/gridsim`,
// `./cmd/gridsim`, `/tmp/gridsim`) starts an invocation, which runs to the
// end of the line or the next `|`, `;` or `&&`; every -flag in it must be
// one the binary defines, and a -fig or -app value one benchgrid accepts.
func undefinedFlags(code string, flags, studies map[string]map[string]bool) (bad []string) {
	for _, line := range strings.Split(code, "\n") {
		bin := ""
		words := strings.Fields(line)
		for i := 0; i < len(words); i++ {
			word := strings.TrimRight(words[i], ".,;:)")
			switch {
			case word == "|" || word == "&&" || strings.HasSuffix(words[i], ";"):
				bin = ""
			case flags[path.Base(word)] != nil:
				bin = path.Base(word)
			case bin != "" && len(word) > 1 && word[0] == '-':
				name, value, hasValue := strings.Cut(strings.TrimLeft(word, "-"), "=")
				if !flags[bin][name] {
					bad = append(bad, bin+" "+word)
					continue
				}
				if accepted := studies[name]; bin == "benchgrid" && accepted != nil {
					if !hasValue && i+1 < len(words) {
						i++
						value = strings.TrimRight(words[i], ".,;:)")
					}
					if !accepted[value] {
						bad = append(bad, bin+" -"+name+" "+value)
					}
				}
			}
		}
	}
	return bad
}

var (
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	testName = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	// runArg is a `go test -run` pattern, quoted or not.
	runArg = regexp.MustCompile(`-run[= ]+['"]?([^\s'"]+)`)
)

// testFuncs reads the names of the repository's Test and Fuzz functions
// from its _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return err
	})
	if err != nil || len(names) == 0 {
		t.Fatalf("no tests found: %v", err)
	}
	return names
}

// unknownTests returns the Test and Fuzz names in code that name no test.
// Inside a -run pattern a name may be a prefix of one, as go test reads it.
func unknownTests(code string, tests map[string]bool) (bad []string) {
	prefixOfOne := func(name string) bool {
		for test := range tests {
			if strings.HasPrefix(test, name) {
				return true
			}
		}
		return false
	}
	var rest strings.Builder
	last := 0
	for _, m := range runArg.FindAllStringSubmatchIndex(code, -1) {
		for _, name := range testName.FindAllString(code[m[2]:m[3]], -1) {
			if !prefixOfOne(name) {
				bad = append(bad, "-run "+name)
			}
		}
		rest.WriteString(code[last:m[2]])
		last = m[3]
	}
	rest.WriteString(code[last:])
	for _, name := range testName.FindAllString(rest.String(), -1) {
		if !tests[name] {
			bad = append(bad, name)
		}
	}
	return bad
}

// qualified is a package-qualified exported name, `core.Config`: group 1 is
// the package, group 2 the name.
var qualified = regexp.MustCompile(`\b([a-z][a-z0-9_]*)\.([A-Z]\w*)`)

// declared reads the top-level funcs, types, vars and consts of the
// non-test files of internal/pkg; a method is not one.
func declared(t *testing.T, pkg string) map[string]bool {
	sources, err := filepath.Glob("internal/" + pkg + "/*.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// undeclared returns the `pkg.Name` uses in code, pkg a package under
// internal/, whose Name that package does not declare at top level.
func undeclared(t *testing.T, code string, decls map[string]map[string]bool) (bad []string) {
	for _, m := range qualified.FindAllStringSubmatch(code, -1) {
		pkg, name := m[1], m[2]
		if !isDir("internal/" + pkg) {
			continue
		}
		if decls[pkg] == nil {
			decls[pkg] = declared(t, pkg)
		}
		if !decls[pkg][name] {
			bad = append(bad, m[0])
		}
	}
	return bad
}

// TestDocsNameOnlyWhatExists: a command a reader can paste must name a
// binary, package, script or make target that is in the tree, and give the
// binary flags it defines; a test a document cites must be one; and a
// `pkg.Name` must be declared at the top level of internal/pkg.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	flags, studies := binaryFlags(t)
	tests := testFuncs(t)
	decls := map[string]map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md", "PAPER.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		code := codeOf(string(raw))
		for _, kind := range docNames {
			seen := map[string]bool{}
			for _, m := range kind.re.FindAllStringSubmatch(code, -1) {
				if !seen[m[1]] && !kind.exists(m[1]) {
					t.Errorf("%s names %q, which does not exist", doc, m[0])
				}
				seen[m[1]] = true
			}
		}
		seen := map[string]bool{}
		for _, use := range undefinedFlags(code, flags, studies) {
			if !seen[use] {
				t.Errorf("%s names %q, which is no flag or value that binary defines", doc, use)
			}
			seen[use] = true
		}
		for _, name := range unknownTests(code, tests) {
			if !seen[name] {
				t.Errorf("%s names %q, which is no test in the repository", doc, name)
			}
			seen[name] = true
		}
		for _, name := range undeclared(t, code, decls) {
			if !seen[name] {
				t.Errorf("%s names %q, which that package does not declare", doc, name)
			}
			seen[name] = true
		}
	}
}

// TestRunTokenIsTheOnlyLock: simulated state is guarded by vtime's run token
// alone (the rule is stated in vtime's package comment, and go test -race
// checks it). A non-test file under internal/, cmd/ or examples/ — the
// kernel's own included — imports neither sync nor sync/atomic: what a run
// reuses, such as its encode buffers (transport.Network.GetBuf), belongs
// to the run.
func TestRunTokenIsTheOnlyLock(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
