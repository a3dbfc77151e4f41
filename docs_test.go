package cogrid

import (
	"os"
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

// TestDocsNameOnlyWhatExists: a command a reader can paste must name a
// binary, package, script or make target that is in the tree.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	for _, path := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		code := codeOf(string(raw))
		for _, kind := range docNames {
			seen := map[string]bool{}
			for _, m := range kind.re.FindAllStringSubmatch(code, -1) {
				if !seen[m[1]] && !kind.exists(m[1]) {
					t.Errorf("%s names %q, which does not exist", path, m[0])
				}
				seen[m[1]] = true
			}
		}
	}
}
