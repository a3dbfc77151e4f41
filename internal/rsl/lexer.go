package rsl

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLParen
	tokRParen
	tokAmp
	tokPipe
	tokPlus
	tokOp     // =, !=, <, <=, >, >=
	tokToken  // unquoted literal
	tokString // quoted literal (text holds the unquoted content)
	tokVarRef // $(NAME) (text holds NAME)
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokAmp:
		return "'&'"
	case tokPipe:
		return "'|'"
	case tokPlus:
		return "'+'"
	case tokOp:
		return "operator"
	case tokToken:
		return "token"
	case tokString:
		return "string"
	case tokVarRef:
		return "variable reference"
	}
	return "?"
}

type token struct {
	kind tokenKind
	text string
	op   Op
	pos  int
}

// SyntaxError reports a lexical or grammatical error with its byte offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rsl: syntax error at offset %d: %s", e.Pos, e.Msg)
}

type lexer struct {
	src string
	pos int
}

func errAt(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// isTokenChar reports whether c may appear in an unquoted token.
func isTokenChar(c byte) bool {
	if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) {
		return true
	}
	return strings.IndexByte("-_./:@#*?~%,", c) >= 0
}

func (l *lexer) next() (token, error) {
	for {
		// Skip whitespace.
		for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
			l.pos++
		}
		// Skip (* ... *) comments.
		if l.pos+1 < len(l.src) && l.src[l.pos] == '(' && l.src[l.pos+1] == '*' {
			end := strings.Index(l.src[l.pos+2:], "*)")
			if end < 0 {
				return token{}, errAt(l.pos, "unterminated comment")
			}
			l.pos += 2 + end + 2
			continue
		}
		break
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case '&':
		l.pos++
		return token{kind: tokAmp, pos: start}, nil
	case '|':
		l.pos++
		return token{kind: tokPipe, pos: start}, nil
	case '+':
		l.pos++
		return token{kind: tokPlus, pos: start}, nil
	case '=':
		l.pos++
		return token{kind: tokOp, op: OpEq, pos: start}, nil
	case '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokOp, op: OpNeq, pos: start}, nil
		}
		return token{}, errAt(start, "expected '=' after '!'")
	case '<':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, op: OpLe, pos: start}, nil
		}
		return token{kind: tokOp, op: OpLt, pos: start}, nil
	case '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, op: OpGe, pos: start}, nil
		}
		return token{kind: tokOp, op: OpGt, pos: start}, nil
	case '"':
		return l.lexString()
	case '$':
		return l.lexVarRef()
	}
	if isTokenChar(c) {
		// '*' may appear inside a token (a*b) but not start one: after a
		// '(' the sequence "(*" always opens a comment, so a leading '*'
		// could never be printed back unambiguously.
		if c == '*' {
			return token{}, errAt(start, "token may not start with '*'")
		}
		end := l.pos
		for end < len(l.src) && isTokenChar(l.src[end]) {
			end++
		}
		text := l.src[l.pos:end]
		l.pos = end
		return token{kind: tokToken, text: text, pos: start}, nil
	}
	return token{}, errAt(start, "unexpected character %q", c)
}

// lexString scans a double-quoted literal; embedded quotes are doubled.
// A literal with no doubled quote is a substring of the source, not a copy.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	if end := strings.IndexByte(l.src[l.pos:], '"'); end >= 0 {
		end += l.pos
		if end+1 >= len(l.src) || l.src[end+1] != '"' {
			l.pos = end + 1
			return token{kind: tokString, text: l.src[start+1 : end], pos: start}, nil
		}
	}
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

// lexVarRef scans $(NAME).
func (l *lexer) lexVarRef() (token, error) {
	start := l.pos
	l.pos++ // '$'
	if l.pos >= len(l.src) || l.src[l.pos] != '(' {
		return token{}, errAt(start, "expected '(' after '$'")
	}
	l.pos++
	end := l.pos
	for end < len(l.src) && isTokenChar(l.src[end]) {
		end++
	}
	if end == l.pos {
		return token{}, errAt(start, "empty variable reference")
	}
	name := l.src[l.pos:end]
	if end >= len(l.src) || l.src[end] != ')' {
		return token{}, errAt(start, "unterminated variable reference $(%s", name)
	}
	l.pos = end + 1
	return token{kind: tokVarRef, text: name, pos: start}, nil
}
