package rsl

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: Parse never panics, whatever bytes it is fed; it either
// returns a tree or a *SyntaxError.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		node, err := Parse(src)
		if err == nil && node == nil {
			return false
		}
		if err != nil {
			if _, isSyntax := err.(*SyntaxError); !isSyntax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: successful parses survive String -> Parse round trips.
func TestParseRoundTripProperty(t *testing.T) {
	f := func(src string) bool {
		node, err := Parse(src)
		if err != nil {
			return true // nothing to round-trip
		}
		again, err := Parse(node.String())
		return err == nil && Equal(node, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRSL feeds the parser arbitrary bytes under the native fuzzer. The
// contract mirrors the quick.Check property above — Parse returns a tree
// or a *SyntaxError, never panics, and successful parses round-trip
// through String — but the coverage-guided mutator digs far deeper into
// the lexer and recursive-descent corners than type-driven randomness.
// The seed corpus (testdata/fuzz/FuzzRSL) collects malformed specs:
// unterminated strings, dangling operators, deep nesting, stray bytes.
func FuzzRSL(f *testing.F) {
	seeds := []string{
		// well-formed anchors for the mutator
		`&(executable=app)(count=2)`,
		`+(&(resourceManagerContact=m01:gram)(count=8)(executable=a1)(subjobStartType=required))`,
		`|(&(a=1))(&(a=2))`,
		`&(env=(DUROC_JOB j1)(DUROC_SUBJOB sj0))`,
		`&(s="()&|+=<>!")`,
		// malformed specs
		``,
		`&`,
		`&(`,
		`&(a`,
		`&(a=`,
		`&(a=1`,
		`&(a=1))`,
		`&(a=")`,
		`&(a="unterminated`,
		`&(=1)`,
		`&(a==1)`,
		`&(a=1)(`,
		`+()`,
		`|`,
		`((((((((((`,
		`&(a=((((((((((1))))))))))`,
		`&(a=1)&(b=2)`,
		`&(a = "x" y)`,
		`&(a=#comment)`,
		"&(a=1)\x00",
		"&(a=\xff\xfe)",
		`&(count=-0x7fffffffffffffff)`,
		// doubled quotes at the start, at the end, and nothing else
		`&(s="""x")`,
		`&(s="x""")`,
		`&(s="""")`,
		`&(s="""""")`,
		`&(s=("""" "a""b" "" x))`,
		`&(s="""`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexStrings(t, src)
		node, err := Parse(src)
		if err != nil {
			if _, isSyntax := err.(*SyntaxError); !isSyntax {
				t.Fatalf("Parse(%q): non-SyntaxError %T: %v", src, err, err)
			}
			return
		}
		if node == nil {
			t.Fatalf("Parse(%q): nil tree without error", src)
		}
		again, err := Parse(node.String())
		if err != nil {
			t.Fatalf("round trip of %q failed to parse %q: %v", src, node.String(), err)
		}
		if !Equal(node, again) {
			t.Fatalf("round trip of %q changed the tree: %q", src, node.String())
		}
		checkAppendLiteral(t, node)
	})
}

// checkAppendLiteral holds AppendLiteral to Literal.String on every
// literal of a parsed tree, whole and split in two parts at every byte.
func checkAppendLiteral(t *testing.T, n Node) {
	t.Helper()
	var value func(v Value)
	value = func(v Value) {
		switch v := v.(type) {
		case Literal:
			want := v.String()
			if got := string(AppendLiteral(nil, string(v))); got != want {
				t.Fatalf("AppendLiteral(%q) = %s, Literal.String %s", string(v), got, want)
			}
			for k := 0; k <= len(v); k++ {
				if got := string(AppendLiteral([]byte("x"), string(v[:k]), string(v[k:]))); got != "x"+want {
					t.Fatalf("AppendLiteral(%q, %q) = %s, Literal.String %s", v[:k], v[k:], got, want)
				}
			}
		case Seq:
			for _, item := range v {
				value(item)
			}
		}
	}
	switch n := n.(type) {
	case *Relation:
		value(n.Value)
	case *Boolean:
		for _, c := range n.Children {
			checkAppendLiteral(t, c)
		}
	}
}

// oldLexString is lexString as it was before literals became substrings
// of the source: every quoted literal copied through a strings.Builder.
func (l *lexer) oldLexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
				sb.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, errAt(start, "unterminated string")
}

// checkLexStrings lexes src and holds every quoted literal, and the error
// of an unterminated one, to oldLexString's from the same offset.
func checkLexStrings(t *testing.T, src string) {
	t.Helper()
	l := lexer{src: src}
	for {
		before := l
		tok, err := l.next()
		if err != nil || tok.kind == tokString {
			old := lexer{src: src, pos: tok.pos}
			if err != nil {
				old.pos = err.(*SyntaxError).Pos
			}
			if old.pos >= len(src) || src[old.pos] != '"' {
				if err != nil {
					return // an error of another kind
				}
				t.Fatalf("string token of %q at %d does not start with a quote", src, old.pos)
			}
			want, wantErr := old.oldLexString()
			if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("lexing %q from %d: error %v, old lexer %v", src, before.pos, err, wantErr)
			}
			if err != nil {
				return
			}
			if tok != want || l.pos != old.pos {
				t.Fatalf("lexing %q: %+v ending at %d, old lexer %+v ending at %d", src, tok, l.pos, want, old.pos)
			}
		}
		if tok.kind == tokEOF {
			return
		}
	}
}

// Property: quoted literals lex as the copying lexer lexed them, and
// AppendLiteral prints every parsed literal as Literal.String does.
func TestLexStringAndAppendLiteralProperty(t *testing.T) {
	alphabet := []byte(`"a *()&|=`)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		src := `&(s=` + string(b) + `)`
		checkLexStrings(t, src)
		if node, err := Parse(src); err == nil {
			checkAppendLiteral(t, node)
		}
	}
	for _, lit := range []string{"", "*", "*a", "a*", `"`, `""`, `a"b`, "a b", "é", "\xff", "x|y", "a\x00"} {
		if got, want := string(AppendLiteral(nil, lit)), Literal(lit).String(); got != want {
			t.Errorf("AppendLiteral(%q) = %s, Literal.String %s", lit, got, want)
		}
	}
}

// A grab bag of strange-but-valid inputs, ensuring the lexer's token
// classes stay stable.
func TestParseOddButValid(t *testing.T) {
	cases := []string{
		`a=1`,
		`&(a=1)`,
		`&( a = 1 )`,
		"\t&\n(a=1)\r\n",
		`&(a=())`,
		`&(a=((x) (y)))`,
		`&(path=/usr/local/bin/app-1.2_3)`,
		`&(contact=host.domain.org:gram)`,
		`&(expr=a*b?c~d%e,f)`,
		`|(&(a=1))(&(a=2))(&(a=3))`,
		`+(&(a=1))`,
		`&(s="")`,
		`&(s="()&|+=<>!")`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
