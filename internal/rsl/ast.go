// Package rsl implements the Resource Specification Language used by GRAM
// and the co-allocators to describe resource requests.
//
// The dialect follows the Globus RSL the paper shows in Figure 1:
//
//	+(&(resourceManagerContact=RM1)(count=1)(executable=master)
//	   (subjobStartType=required))
//	  (&(resourceManagerContact=RM2)(count=4)(executable=worker)
//	   (subjobStartType=interactive))
//
// A specification is a relation (attribute op value), or a boolean
// combination: & (conjunction), | (disjunction), + (multirequest). Values
// are unquoted tokens, quoted strings, sequences, or $(VAR) substitution
// references resolved against bindings supplied at evaluation time.
// Attribute names are case-insensitive. (* ... *) comments are ignored.
package rsl

import (
	"fmt"
	"strings"
)

// Op is a relational operator.
type Op int

// Relational operators.
const (
	OpEq Op = iota
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// BoolOp combines specifications.
type BoolOp int

// Boolean combinators.
const (
	And   BoolOp = iota // &: all relations must hold
	Or                  // |: alternatives
	Multi               // +: multirequest, one child per subjob
)

func (b BoolOp) String() string {
	switch b {
	case And:
		return "&"
	case Or:
		return "|"
	case Multi:
		return "+"
	}
	return "?"
}

// Node is a parsed RSL specification.
type Node interface {
	fmt.Stringer
	node()
}

// Relation is attribute op value.
type Relation struct {
	Attribute string
	Op        Op
	Value     Value
}

func (*Relation) node() {}

func (r *Relation) String() string {
	return fmt.Sprintf("%s%s%s", r.Attribute, r.Op, r.Value)
}

// Boolean is a combinator over child specifications.
type Boolean struct {
	Op       BoolOp
	Children []Node
}

func (*Boolean) node() {}

func (b *Boolean) String() string {
	var sb strings.Builder
	sb.WriteString(b.Op.String())
	for _, c := range b.Children {
		sb.WriteByte('(')
		sb.WriteString(c.String())
		sb.WriteByte(')')
	}
	return sb.String()
}

// Value is an RSL value: a literal, a variable reference, or a sequence.
type Value interface {
	fmt.Stringer
	value()
}

// Literal is a string or numeric value.
type Literal string

func (Literal) value() {}

func (l Literal) String() string {
	// Quote unless every byte is part of the lexer's bare-token alphabet;
	// anything else (spaces, syntax characters, arbitrary bytes) must be
	// quoted to survive a round trip.
	s := string(l)
	// A leading '*' must be quoted too: the lexer rejects bare tokens
	// starting with '*' because "(*" opens a comment.
	if s == "" || s[0] == '*' {
		return quote(s)
	}
	for i := 0; i < len(s); i++ {
		if !isTokenChar(s[i]) {
			return quote(s)
		}
	}
	return s
}

// AppendLiteral appends to dst the literal whose text is parts joined, as
// Literal.String prints it: bare when every byte is a token byte and the
// first is not '*', else quoted with each '"' doubled. Quoting is byte by
// byte, so the parts are written in place and never joined.
func AppendLiteral(dst []byte, parts ...string) []byte {
	bare, first := true, true
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			if !isTokenChar(p[i]) || first && p[i] == '*' {
				bare = false
			}
			first = false
		}
	}
	if bare && !first {
		for _, p := range parts {
			dst = append(dst, p...)
		}
		return dst
	}
	dst = append(dst, '"')
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			if p[i] == '"' {
				dst = append(dst, '"')
			}
			dst = append(dst, p[i])
		}
	}
	return append(dst, '"')
}

// VarRef is a $(NAME) substitution reference.
type VarRef string

func (VarRef) value() {}

func (v VarRef) String() string { return "$(" + string(v) + ")" }

// Seq is a parenthesized sequence of values.
type Seq []Value

func (Seq) value() {}

func (s Seq) String() string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

func quote(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			sb.WriteString(`""`)
		} else {
			sb.WriteByte(s[i])
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// Format pretty-prints a node with one relation or child per line, as in
// the paper's Figure 1.
func Format(n Node) string {
	var sb strings.Builder
	format(&sb, n, 0)
	return sb.String()
}

func format(sb *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch v := n.(type) {
	case *Relation:
		sb.WriteString(indent)
		sb.WriteString(v.String())
	case *Boolean:
		sb.WriteString(indent)
		sb.WriteString(v.Op.String())
		onlyRelations := true
		for _, c := range v.Children {
			if _, ok := c.(*Relation); !ok {
				onlyRelations = false
				break
			}
		}
		if onlyRelations {
			for _, c := range v.Children {
				sb.WriteByte('(')
				sb.WriteString(c.String())
				sb.WriteByte(')')
			}
			return
		}
		for _, c := range v.Children {
			sb.WriteString("\n")
			sb.WriteString(indent)
			sb.WriteString("(")
			sb.WriteString("\n")
			format(sb, c, depth+1)
			sb.WriteString("\n")
			sb.WriteString(indent)
			sb.WriteString(")")
		}
	}
}
