// Package lang implements a small Algol-family language — a stand-in for
// Mesa/Pascal in the paper's terms — and its compiler to the byte-coded
// instruction set. Programs are organized as modules: global variables, a
// set of procedures, and imports of other modules' procedures (§5's
// structure). The compiler produces image.Modules for the linker.
//
// The calling convention is the paper's: the evaluation stack is the
// argument record, so the whole stack at a call must be exactly the
// arguments. When a nested call would clobber live operands ("code of the
// form f[g[], h[]]", §5.2), the compiler spills them to temporaries and
// retrieves them afterwards — the measurable cost the paper points at and
// §7.2's renaming removes.
package lang

import "fmt"

// Kind classifies tokens.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	NUMBER

	// punctuation
	LPAREN
	RPAREN
	LBRACE
	RBRACE
	COMMA
	SEMI
	DOT
	ASSIGN // =
	PLUS
	MINUS
	STAR
	SLASH
	PERCENT
	AMP  // &
	PIPE // |
	CARET
	TILDE
	BANG // !
	LSHIFT
	RSHIFT
	EQ // ==
	NE
	LT
	LE
	GT
	GE
	ANDAND
	OROR

	// keywords
	KWMODULE
	KWIMPORT
	KWVAR
	KWCONST
	KWPROC
	KWIF
	KWELSE
	KWWHILE
	KWRETURN
)

// keyword returns the keyword kind an identifier spells, or IDENT.
func keyword(s string) Kind {
	switch s {
	case "module":
		return KWMODULE
	case "import":
		return KWIMPORT
	case "var":
		return KWVAR
	case "const":
		return KWCONST
	case "proc":
		return KWPROC
	case "if":
		return KWIF
	case "else":
		return KWELSE
	case "while":
		return KWWHILE
	case "return":
		return KWRETURN
	}
	return IDENT
}

// Token is one lexeme with its source position.
type Token struct {
	Kind Kind
	Text string
	Val  uint16 // for NUMBER
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == IDENT || t.Kind == NUMBER {
		return t.Text
	}
	return tokenNames[t.Kind]
}

var tokenNames = map[Kind]string{
	EOF: "end of input", IDENT: "identifier", NUMBER: "number",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", COMMA: ",", SEMI: ";",
	DOT: ".", ASSIGN: "=", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/",
	PERCENT: "%", AMP: "&", PIPE: "|", CARET: "^", TILDE: "~", BANG: "!",
	LSHIFT: "<<", RSHIFT: ">>", EQ: "==", NE: "!=", LT: "<", LE: "<=",
	GT: ">", GE: ">=", ANDAND: "&&", OROR: "||",
	KWMODULE: "module", KWIMPORT: "import", KWVAR: "var", KWCONST: "const",
	KWPROC: "proc", KWIF: "if", KWELSE: "else", KWWHILE: "while", KWRETURN: "return",
}

// Error is a compile error with position information.
type Error struct {
	Module string
	Line   int
	Col    int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.Module, e.Line, e.Col, e.Msg)
}
