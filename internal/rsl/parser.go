package rsl

import "strings"

// Parse parses an RSL specification.
func Parse(src string) (Node, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errAt(p.tok.pos, "trailing input after specification: %s", p.tok.kind)
	}
	return n, nil
}

// MustParse is Parse for known-good inputs; it panics on error.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// parseSpec parses a boolean combination or a bare relation.
func (p *parser) parseSpec() (Node, error) {
	switch p.tok.kind {
	case tokAmp:
		return p.parseBoolean(And)
	case tokPipe:
		return p.parseBoolean(Or)
	case tokPlus:
		return p.parseBoolean(Multi)
	case tokToken:
		// Attribute names are bare identifiers only; a quoted string here
		// would allow attributes (e.g. "") that Relation.String cannot
		// print back into parseable form.
		return p.parseRelation()
	}
	return nil, errAt(p.tok.pos, "expected '&', '|', '+' or a relation, found %s", p.tok.kind)
}

// parseBoolean parses OP '(' spec ')' ... with at least one child.
func (p *parser) parseBoolean(op BoolOp) (Node, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	// A subjob's conjunction has three to five relations.
	b := &Boolean{Op: op, Children: make([]Node, 0, 8)}
	for p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return nil, err
		}
		child, err := p.parseSpec()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, errAt(p.tok.pos, "expected ')', found %s", p.tok.kind)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		b.Children = append(b.Children, child)
	}
	if len(b.Children) == 0 {
		return nil, errAt(p.tok.pos, "%s must have at least one parenthesized child", op)
	}
	return b, nil
}

// parseRelation parses attribute op value.
func (p *parser) parseRelation() (Node, error) {
	attr := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokOp {
		return nil, errAt(p.tok.pos, "expected relational operator after %q, found %s", attr, p.tok.kind)
	}
	op := p.tok.op
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return &Relation{Attribute: attr, Op: op, Value: v}, nil
}

// parseValue parses a literal, variable reference, or sequence.
func (p *parser) parseValue() (Value, error) {
	switch p.tok.kind {
	case tokToken, tokString:
		v := Literal(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return v, nil
	case tokVarRef:
		v := VarRef(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		return v, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var seq Seq
		for p.tok.kind != tokRParen {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			if seq == nil {
				// A subjob's environment is three or four name-value pairs.
				seq = make(Seq, 0, 8)
			}
			seq = append(seq, v)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return seq, nil
	}
	return nil, errAt(p.tok.pos, "expected a value, found %s", p.tok.kind)
}

// Equal reports structural equality of two specifications, comparing
// attribute names case-insensitively.
func Equal(a, b Node) bool {
	switch av := a.(type) {
	case *Relation:
		bv, ok := b.(*Relation)
		if !ok {
			return false
		}
		return strings.EqualFold(av.Attribute, bv.Attribute) && av.Op == bv.Op && valueEqual(av.Value, bv.Value)
	case *Boolean:
		bv, ok := b.(*Boolean)
		if !ok || av.Op != bv.Op || len(av.Children) != len(bv.Children) {
			return false
		}
		for i := range av.Children {
			if !Equal(av.Children[i], bv.Children[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func valueEqual(a, b Value) bool {
	switch av := a.(type) {
	case Literal:
		bv, ok := b.(Literal)
		return ok && av == bv
	case VarRef:
		bv, ok := b.(VarRef)
		return ok && av == bv
	case Seq:
		bv, ok := b.(Seq)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !valueEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	}
	return false
}
