package rsl

import (
	"strings"
	"testing"
	"testing/quick"
)

// figure1 is the paper's example co-allocation request.
const figure1 = `+(&(resourceManagerContact=RM1)
     (count=1)(executable=master)
     (subjobStartType=required))
   (&(resourceManagerContact=RM2)
     (count=4)(executable=worker)
     (subjobStartType=interactive))
   (&(resourceManagerContact=RM3)
     (count=4)(executable=worker)
     (subjobStartType=interactive))`

func TestParseFigure1(t *testing.T) {
	n, err := Parse(figure1)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	subs, err := Subrequests(n)
	if err != nil {
		t.Fatalf("Subrequests: %v", err)
	}
	if len(subs) != 3 {
		t.Fatalf("subjobs = %d, want 3", len(subs))
	}
	rm, ok, err := GetString(subs[0], "resourceManagerContact", nil)
	if err != nil || !ok || rm != "RM1" {
		t.Errorf("subjob 0 contact = %q,%t,%v; want RM1", rm, ok, err)
	}
	count, ok, err := GetInt(subs[1], "count", nil)
	if err != nil || !ok || count != 4 {
		t.Errorf("subjob 1 count = %d,%t,%v; want 4", count, ok, err)
	}
	st, _, _ := GetString(subs[2], "subjobStartType", nil)
	if st != "interactive" {
		t.Errorf("subjob 2 start type = %q, want interactive", st)
	}
}

func TestParseRelationOperators(t *testing.T) {
	cases := []struct {
		src string
		op  Op
	}{
		{"memory=64", OpEq},
		{"memory!=64", OpNeq},
		{"memory<64", OpLt},
		{"memory<=64", OpLe},
		{"memory>64", OpGt},
		{"memory>=64", OpGe},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		r, ok := n.(*Relation)
		if !ok {
			t.Errorf("Parse(%q) = %T, want *Relation", c.src, n)
			continue
		}
		if r.Op != c.op {
			t.Errorf("Parse(%q).Op = %v, want %v", c.src, r.Op, c.op)
		}
	}
}

func TestParseQuotedStringsAndEscapes(t *testing.T) {
	n, err := Parse(`&(executable="/bin/my app")(arguments="say ""hi""")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	exe, _, _ := GetString(n, "executable", nil)
	if exe != "/bin/my app" {
		t.Errorf("executable = %q", exe)
	}
	args, _, _ := GetString(n, "arguments", nil)
	if args != `say "hi"` {
		t.Errorf("arguments = %q", args)
	}
}

func TestParseValueSequence(t *testing.T) {
	n, err := Parse(`&(arguments=(alpha beta "gamma delta"))`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	args, _, err := GetString(n, "arguments", nil)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if args != "alpha beta gamma delta" {
		t.Errorf("arguments = %q", args)
	}
}

func TestParseDisjunction(t *testing.T) {
	n, err := Parse(`|(&(count=32))(&(count=16))`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	b, ok := n.(*Boolean)
	if !ok || b.Op != Or || len(b.Children) != 2 {
		t.Fatalf("got %v", n)
	}
	if _, err := Subrequests(n); err == nil {
		t.Error("Subrequests on a disjunction did not fail")
	}
}

func TestParseComments(t *testing.T) {
	n, err := Parse(`&(* the executable *)(executable=master)(* processor count *)(count=8)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	count, _, _ := GetInt(n, "count", nil)
	if count != 8 {
		t.Errorf("count = %d, want 8", count)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"&",
		"&(count=1",
		"&(count=)",
		"&(=1)",
		"count!",
		`executable="unterminated`,
		"&(count=1)(count=2))",
		"&(count=1)junk",
		"$(X",
		"count=$()",
		"(*unterminated",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSyntaxErrorHasOffset(t *testing.T) {
	_, err := Parse("&(count=1)(executable=)")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error = %T, want *SyntaxError", err)
	}
	if se.Pos != 22 {
		t.Errorf("Pos = %d, want 22", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset 22") {
		t.Errorf("message %q lacks offset", se.Error())
	}
}

func TestAttributeNamesCaseInsensitive(t *testing.T) {
	n := MustParse(`&(ResourceManagerContact=rm1)(COUNT=2)`)
	rm, ok, _ := GetString(n, "resourcemanagercontact", nil)
	if !ok || rm != "rm1" {
		t.Errorf("lookup failed: %q %t", rm, ok)
	}
	count, ok, _ := GetInt(n, "Count", nil)
	if !ok || count != 2 {
		t.Errorf("count = %d %t", count, ok)
	}
}

func TestVariableSubstitution(t *testing.T) {
	n := MustParse(`&(executable=$(HOME))(count=4)`)
	env := Bindings{"HOME": "/home/grid"}
	exe, ok, err := GetString(n, "executable", env)
	if err != nil || !ok || exe != "/home/grid" {
		t.Errorf("executable = %q,%t,%v", exe, ok, err)
	}
	if _, _, err := GetString(n, "executable", nil); err == nil {
		t.Error("unbound variable evaluated without error")
	}
	sub, err := Substitute(n, env)
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if strings.Contains(sub.String(), "$(") {
		t.Errorf("Substitute left a reference: %s", sub)
	}
}

func TestSubstituteUnboundFails(t *testing.T) {
	n := MustParse(`&(dir=$(NOPE))`)
	if _, err := Substitute(n, Bindings{}); err == nil {
		t.Error("Substitute with unbound variable succeeded")
	}
}

func TestGetIntRejectsNonNumeric(t *testing.T) {
	n := MustParse(`&(count=many)`)
	if _, _, err := GetInt(n, "count", nil); err == nil {
		t.Error("GetInt on non-numeric value succeeded")
	}
}

func TestGetAbsentAttribute(t *testing.T) {
	n := MustParse(`&(count=1)`)
	if _, ok, err := GetString(n, "executable", nil); ok || err != nil {
		t.Errorf("absent attribute: ok=%t err=%v", ok, err)
	}
}

func TestConjAndWithAttribute(t *testing.T) {
	n := Conj([2]string{"count", "4"}, [2]string{"executable", "worker"})
	got, _, _ := GetString(n, "executable", nil)
	if got != "worker" {
		t.Fatalf("executable = %q", got)
	}
	n2, err := WithAttribute(n, "count", "8")
	if err != nil {
		t.Fatalf("WithAttribute: %v", err)
	}
	c2, _, _ := GetInt(n2, "count", nil)
	if c2 != 8 {
		t.Errorf("replaced count = %d, want 8", c2)
	}
	c1, _, _ := GetInt(n, "count", nil)
	if c1 != 4 {
		t.Errorf("original mutated: count = %d, want 4", c1)
	}
	n3, err := WithAttribute(n, "jobType", "mpi")
	if err != nil {
		t.Fatalf("WithAttribute add: %v", err)
	}
	jt, ok, _ := GetString(n3, "jobType", nil)
	if !ok || jt != "mpi" {
		t.Errorf("added attribute = %q,%t", jt, ok)
	}
}

func TestSubrequestsOnBareConjunction(t *testing.T) {
	n := MustParse(`&(count=1)`)
	subs, err := Subrequests(n)
	if err != nil || len(subs) != 1 {
		t.Fatalf("Subrequests = %v, %v", subs, err)
	}
}

func TestRoundTripFigure1(t *testing.T) {
	n := MustParse(figure1)
	reparsed, err := Parse(n.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !Equal(n, reparsed) {
		t.Fatalf("round trip changed structure:\n%s\nvs\n%s", n, reparsed)
	}
}

func TestFormatIsReparseable(t *testing.T) {
	n := MustParse(figure1)
	pretty := Format(n)
	reparsed, err := Parse(pretty)
	if err != nil {
		t.Fatalf("reparse of Format output: %v\n%s", err, pretty)
	}
	if !Equal(n, reparsed) {
		t.Fatal("Format output parses to a different tree")
	}
}

// Property: printing any literal value and reparsing it yields the same
// string, whatever bytes it contains — quoting must cover everything the
// bare-token alphabet does not.
func TestLiteralQuotingRoundTripProperty(t *testing.T) {
	f := func(raw string) bool {
		src := "&(attr=" + Literal(raw).String() + ")"
		n, err := Parse(src)
		if err != nil {
			return false
		}
		got, ok, err := GetString(n, "attr", nil)
		return err == nil && ok && got == raw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: String() output of a generated tree reparses to an Equal tree.
func TestTreeRoundTripProperty(t *testing.T) {
	attrs := []string{"count", "executable", "maxTime", "queue", "jobType"}
	vals := []Value{Literal("4"), Literal("a b"), VarRef("HOME"), Seq{Literal("x"), Literal("y z")}}
	f := func(shape []uint8) bool {
		b := &Boolean{Op: And}
		for i, s := range shape {
			if i >= 12 {
				break
			}
			b.Children = append(b.Children, &Relation{
				Attribute: attrs[int(s)%len(attrs)],
				Op:        Op(int(s) % 6),
				Value:     vals[int(s/7)%len(vals)],
			})
		}
		if len(b.Children) == 0 {
			b.Children = append(b.Children, &Relation{Attribute: "count", Op: OpEq, Value: Literal("1")})
		}
		multi := &Boolean{Op: Multi, Children: []Node{b, b}}
		reparsed, err := Parse(multi.String())
		return err == nil && Equal(multi, reparsed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
