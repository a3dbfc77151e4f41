package rsl

import (
	"fmt"
	"strconv"
	"strings"
)

// Bindings supplies values for $(VAR) references.
type Bindings map[string]string

// Eval resolves a value against bindings, concatenating sequences with
// spaces. Unbound variables are an error.
func Eval(v Value, env Bindings) (string, error) {
	switch val := v.(type) {
	case Literal:
		return string(val), nil
	case VarRef:
		if env != nil {
			if s, ok := env[string(val)]; ok {
				return s, nil
			}
		}
		return "", fmt.Errorf("rsl: unbound variable $(%s)", string(val))
	case Seq:
		parts := make([]string, len(val))
		for i, item := range val {
			s, err := Eval(item, env)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return strings.Join(parts, " "), nil
	}
	return "", fmt.Errorf("rsl: unknown value type %T", v)
}

// Substitute returns a copy of n with every VarRef replaced by its binding.
// Unbound variables are an error.
func Substitute(n Node, env Bindings) (Node, error) {
	switch v := n.(type) {
	case *Relation:
		nv, err := substituteValue(v.Value, env)
		if err != nil {
			return nil, err
		}
		return &Relation{Attribute: v.Attribute, Op: v.Op, Value: nv}, nil
	case *Boolean:
		out := &Boolean{Op: v.Op, Children: make([]Node, len(v.Children))}
		for i, c := range v.Children {
			nc, err := Substitute(c, env)
			if err != nil {
				return nil, err
			}
			out.Children[i] = nc
		}
		return out, nil
	}
	return nil, fmt.Errorf("rsl: unknown node type %T", n)
}

func substituteValue(v Value, env Bindings) (Value, error) {
	switch val := v.(type) {
	case Literal:
		return val, nil
	case VarRef:
		s, err := Eval(val, env)
		if err != nil {
			return nil, err
		}
		return Literal(s), nil
	case Seq:
		out := make(Seq, len(val))
		for i, item := range val {
			ni, err := substituteValue(item, env)
			if err != nil {
				return nil, err
			}
			out[i] = ni
		}
		return out, nil
	}
	return nil, fmt.Errorf("rsl: unknown value type %T", v)
}

// Attributes flattens a conjunction (or single relation) into an
// attribute->value map for = relations, with attribute names lowercased.
// Nested conjunctions are flattened; other operators are skipped.
func Attributes(n Node) map[string]Value {
	out := make(map[string]Value)
	collect(n, out)
	return out
}

func collect(n Node, out map[string]Value) {
	switch v := n.(type) {
	case *Relation:
		if v.Op == OpEq {
			out[strings.ToLower(v.Attribute)] = v.Value
		}
	case *Boolean:
		if v.Op == And {
			for _, c := range v.Children {
				collect(c, out)
			}
		}
	}
}

// GetString extracts an = relation's value as a string. ok is false if the
// attribute is absent.
func GetString(n Node, attr string, env Bindings) (s string, ok bool, err error) {
	v, present := Attributes(n)[strings.ToLower(attr)]
	if !present {
		return "", false, nil
	}
	s, err = Eval(v, env)
	return s, true, err
}

// GetInt extracts an = relation's value as an int.
func GetInt(n Node, attr string, env Bindings) (i int, ok bool, err error) {
	s, ok, err := GetString(n, attr, env)
	if !ok || err != nil {
		return 0, ok, err
	}
	i, err = strconv.Atoi(s)
	if err != nil {
		return 0, true, fmt.Errorf("rsl: attribute %s: %w", attr, err)
	}
	return i, true, nil
}

// Subrequests splits a multirequest into its children. A bare conjunction
// or relation is treated as a single-subjob multirequest. A disjunction at
// the top level is an error here: the co-allocator resolves alternatives
// before submission.
func Subrequests(n Node) ([]Node, error) {
	if b, ok := n.(*Boolean); ok {
		switch b.Op {
		case Multi:
			return b.Children, nil
		case Or:
			return nil, fmt.Errorf("rsl: top-level disjunction has no direct subjob decomposition")
		}
	}
	return []Node{n}, nil
}

// Conj builds a conjunction from attribute=value pairs in the given order.
func Conj(pairs ...[2]string) *Boolean {
	b := &Boolean{Op: And}
	for _, p := range pairs {
		b.Children = append(b.Children, &Relation{Attribute: p[0], Op: OpEq, Value: Literal(p[1])})
	}
	return b
}

// WithAttribute returns a copy of a conjunction with attr set to value,
// replacing an existing = relation for it if present.
func WithAttribute(n Node, attr, value string) (Node, error) {
	b, ok := n.(*Boolean)
	if !ok || b.Op != And {
		return nil, fmt.Errorf("rsl: WithAttribute requires a conjunction")
	}
	out := &Boolean{Op: And}
	replaced := false
	for _, c := range b.Children {
		if r, isRel := c.(*Relation); isRel && r.Op == OpEq && strings.EqualFold(r.Attribute, attr) {
			out.Children = append(out.Children, &Relation{Attribute: r.Attribute, Op: OpEq, Value: Literal(value)})
			replaced = true
			continue
		}
		out.Children = append(out.Children, c)
	}
	if !replaced {
		out.Children = append(out.Children, &Relation{Attribute: attr, Op: OpEq, Value: Literal(value)})
	}
	return out, nil
}
