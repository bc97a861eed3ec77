package lang

import "fmt"

// lexer hands out one token at a time. Its state is the source and three
// ints, so the parser looks ahead on a copy of it.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

// errf reports a lex error at the current position. The parser fills in
// the module: a lex error names the module the caller passed to Parse.
func (l *lexer) errf(format string, args ...interface{}) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpace() *Error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			for {
				if l.pos+1 >= len(l.src) {
					return l.errf("unterminated comment")
				}
				if l.peekByte() == '*' && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token. After an error the lexer's state is
// undefined; the caller lexes no further.
func (l *lexer) next() (Token, *Error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = EOF
		return tok, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		tok.Text = l.src[start:l.pos]
		tok.Kind = keyword(tok.Text)
		return tok, nil
	case isDigit(c):
		start := l.pos
		base := 10
		if c == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
			base = 16
			l.advance()
			l.advance()
		}
		for l.pos < len(l.src) {
			d := l.peekByte()
			if isDigit(d) || (base == 16 && ((d >= 'a' && d <= 'f') || (d >= 'A' && d <= 'F'))) {
				l.advance()
			} else {
				break
			}
		}
		tok.Text = l.src[start:l.pos]
		var v uint32
		digits := tok.Text
		if base == 16 {
			digits = digits[2:]
			if digits == "" {
				return tok, l.errf("malformed hex literal %q", tok.Text)
			}
		}
		for i := 0; i < len(digits); i++ {
			d := digits[i]
			var dv uint32
			switch {
			case isDigit(d):
				dv = uint32(d - '0')
			case d >= 'a' && d <= 'f':
				dv = uint32(d-'a') + 10
			case d >= 'A' && d <= 'F':
				dv = uint32(d-'A') + 10
			}
			v = v*uint32(base) + dv
			if v > 0xFFFF {
				return tok, l.errf("literal %q exceeds 16 bits", tok.Text)
			}
		}
		tok.Kind = NUMBER
		tok.Val = uint16(v)
		return tok, nil
	}
	l.advance()
	two := func(nextc byte, k2, k1 Kind) Kind {
		if l.pos < len(l.src) && l.peekByte() == nextc {
			l.advance()
			return k2
		}
		return k1
	}
	switch c {
	case '(':
		tok.Kind = LPAREN
	case ')':
		tok.Kind = RPAREN
	case '{':
		tok.Kind = LBRACE
	case '}':
		tok.Kind = RBRACE
	case ',':
		tok.Kind = COMMA
	case ';':
		tok.Kind = SEMI
	case '.':
		tok.Kind = DOT
	case '+':
		tok.Kind = PLUS
	case '-':
		tok.Kind = MINUS
	case '*':
		tok.Kind = STAR
	case '/':
		tok.Kind = SLASH
	case '%':
		tok.Kind = PERCENT
	case '^':
		tok.Kind = CARET
	case '~':
		tok.Kind = TILDE
	case '=':
		tok.Kind = two('=', EQ, ASSIGN)
	case '!':
		tok.Kind = two('=', NE, BANG)
	case '<':
		if l.pos < len(l.src) && l.peekByte() == '<' {
			l.advance()
			tok.Kind = LSHIFT
		} else {
			tok.Kind = two('=', LE, LT)
		}
	case '>':
		if l.pos < len(l.src) && l.peekByte() == '>' {
			l.advance()
			tok.Kind = RSHIFT
		} else {
			tok.Kind = two('=', GE, GT)
		}
	case '&':
		tok.Kind = two('&', ANDAND, AMP)
	case '|':
		tok.Kind = two('|', OROR, PIPE)
	default:
		return tok, l.errf("unexpected character %q", string(c))
	}
	return tok, nil
}
