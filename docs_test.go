package cogrid

import (
	"os"
	"path"
	"path/filepath"
	"regexp"
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

// TestDocsNameOnlyWhatExists: a command a reader can paste must name a
// binary, package, script or make target that is in the tree, and give the
// binary flags it defines.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	flags, studies := binaryFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md", ".claude/skills/verify/SKILL.md"} {
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
	}
}
