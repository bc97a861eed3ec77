package lang

import "fmt"

// parser pulls its tokens from the lexer one at a time: tok is the
// current token, and nothing else of the stream is kept.
type parser struct {
	module string // names parse errors: the declared module once parsed
	lex    lexer
	tok    Token
	lexErr *Error // the source's first lex error; it ends the token stream
	depth  int    // open nesting levels; see nest
}

// maxNesting bounds how deeply the recursive productions may nest:
// expressions, parenthesized or passed as call arguments, unary operators,
// blocks and if statements (an else-if chain nests one level per if).
// Every later pass walks the tree recursively too, so the bound keeps the
// whole build's stack and memory small whatever the source. The deepest
// nesting in the corpus, examples/ and RandomProgram seeds 0-19999 is 11.
const maxNesting = 1000

// maxSourceBytes bounds the source text the frontend accepts: one module
// for Parse, and the sum over a submission for CompileAll and ParseAll.
// The tree grows with the source, and a flat chain like 1+1+...+1 nests
// one tree level per operator without tripping maxNesting, so only a size
// cap bounds the build's memory. The largest sources measured are 694
// bytes in the corpus and, over RandomProgram seeds 0-19999, 3,070 bytes
// per module and 4,238 per program.
const maxSourceBytes = 64 << 10

// Parse parses one module source. The source's first lex error wins over
// any parse error, wherever the two fall: a lex error ends the token
// stream, and after a parse error Parse lexes the rest of the source for
// one. A lex error names moduleName; a parse error names the module the
// source declares once its header has parsed.
func Parse(moduleName, src string) (*File, error) {
	if len(src) > maxSourceBytes {
		return nil, fmt.Errorf("lang: module %s: source is %d bytes, over the %d-byte limit",
			moduleName, len(src), maxSourceBytes)
	}
	p := &parser{module: moduleName, lex: newLexer(src)}
	p.tok = p.scan()
	f, err := p.file()
	// A lex error anywhere in the source wins: lex the rest of it.
	for err != nil && p.tok.Kind != EOF {
		p.advance()
	}
	if p.lexErr != nil {
		p.lexErr.Module = moduleName
		return nil, p.lexErr
	}
	return f, err
}

// scan lexes the next token. A lex error ends the stream: it is kept for
// Parse to report, and the parser sees the end of input.
func (p *parser) scan() Token {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		return Token{Kind: EOF, Line: err.Line, Col: err.Col}
	}
	return t
}

func (p *parser) cur() Token { return p.tok }

// advance consumes the current token and returns it. It never moves past
// the end of input.
func (p *parser) advance() Token {
	t := p.tok
	if t.Kind != EOF {
		p.tok = p.scan()
	}
	return t
}

func (p *parser) errf(t Token, format string, args ...interface{}) error {
	return &Error{Module: p.module, Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// nest enters one nesting level and fails, located at the current token,
// past maxNesting. The caller leaves the level with p.depth--.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errf(p.cur(), "nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return p.cur(), p.errf(p.cur(), "expected %s, found %q", tokenNames[k], p.cur())
	}
	return p.advance(), nil
}

func (p *parser) file() (*File, error) {
	if _, err := p.expect(KWMODULE); err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	f := &File{Name: name.Text}
	if f.Name != p.module && p.module != "" {
		// The declared name wins; the caller's name is advisory.
		p.module = f.Name
	}
	for p.cur().Kind != EOF {
		switch p.cur().Kind {
		case KWIMPORT:
			p.advance()
			m, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			f.Imports = append(f.Imports, m.Text)
		case KWCONST:
			p.advance()
			n, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ASSIGN); err != nil {
				return nil, err
			}
			v, err := p.constNumber()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			f.Consts = append(f.Consts, &ConstDecl{Name: n.Text, Val: v, Line: n.Line})
		case KWVAR:
			vars, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, vars...)
		case KWPROC:
			proc, err := p.procDecl()
			if err != nil {
				return nil, err
			}
			f.Procs = append(f.Procs, proc)
		default:
			return nil, p.errf(p.cur(), "expected declaration, found %q", p.cur())
		}
	}
	return f, nil
}

// constNumber parses NUMBER or -NUMBER.
func (p *parser) constNumber() (uint16, error) {
	neg := false
	if p.cur().Kind == MINUS {
		neg = true
		p.advance()
	}
	n, err := p.expect(NUMBER)
	if err != nil {
		return 0, err
	}
	v := n.Val
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) varDecl() ([]*VarDecl, error) {
	if _, err := p.expect(KWVAR); err != nil {
		return nil, err
	}
	var out []*VarDecl
	for {
		n, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		vd := &VarDecl{Name: n.Text, Line: n.Line}
		if p.cur().Kind == ASSIGN {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			vd.Init = e
		}
		out = append(out, vd)
		if p.cur().Kind == COMMA {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) procDecl() (*ProcDecl, error) {
	if _, err := p.expect(KWPROC); err != nil {
		return nil, err
	}
	n, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	proc := &ProcDecl{Name: n.Text, Line: n.Line}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	for p.cur().Kind != RPAREN {
		pn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		proc.Params = append(proc.Params, pn.Text)
		if p.cur().Kind == COMMA {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	proc.Body = body
	return proc, nil
}

func (p *parser) block() (*Block, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	b := &Block{}
	for p.cur().Kind != RBRACE {
		if p.cur().Kind == EOF {
			return nil, p.errf(p.cur(), "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance()
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case KWVAR:
		vars, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Vars: vars, Line: t.Line}, nil
	case KWIF:
		return p.ifStmt()
	case KWWHILE:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
	case KWRETURN:
		p.advance()
		rs := &ReturnStmt{Line: t.Line}
		if p.cur().Kind != SEMI {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				rs.Values = append(rs.Values, e)
				if p.cur().Kind == COMMA {
					p.advance()
					continue
				}
				break
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return rs, nil
	}
	// Assignment (one or more IDENT targets) or expression statement.
	if t.Kind == IDENT {
		if assign, n := p.scanAssignTargets(); assign {
			targets := make([]string, 0, n)
			for i := 0; i < n; i++ {
				id, _ := p.expect(IDENT)
				targets = append(targets, id.Text)
				if i < n-1 {
					p.advance() // comma
				}
			}
			p.advance() // '='
			val, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &AssignStmt{Targets: targets, Value: val, Line: t.Line}, nil
		}
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{X: e, Line: t.Line}, nil
}

// scanAssignTargets looks ahead for IDENT (, IDENT)* '=' (not '==') on a
// copy of the lexer. A lex error in the lookahead reads as no assignment;
// the parse reaches the error itself, or Parse finds it afterwards.
func (p *parser) scanAssignTargets() (bool, int) {
	l := p.lex
	t := p.tok
	n := 0
	for {
		if t.Kind != IDENT {
			return false, 0
		}
		n++
		var err *Error
		if t, err = l.next(); err != nil {
			return false, 0
		}
		switch t.Kind {
		case COMMA:
			if t, err = l.next(); err != nil {
				return false, 0
			}
		case ASSIGN:
			return true, n
		default:
			return false, 0
		}
	}
}

func (p *parser) ifStmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	t := p.advance() // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Line: t.Line}
	if p.cur().Kind == KWELSE {
		p.advance()
		if p.cur().Kind == KWIF {
			elif, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			st.Else = &Block{Stmts: []Stmt{elif}}
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

// Expression parsing: precedence climbing.

// precedence is each binary operator's binding strength, indexed by Kind
// over every kind; 0 marks a kind that is not a binary operator.
var precedence = [KWRETURN + 1]int{
	OROR:   1,
	ANDAND: 2,
	PIPE:   3,
	CARET:  4,
	AMP:    5,
	EQ:     6, NE: 6,
	LT: 7, LE: 7, GT: 7, GE: 7,
	LSHIFT: 8, RSHIFT: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

func (p *parser) expr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	return p.binExpr(0)
}

func (p *parser) binExpr(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur()
		prec := precedence[op.Kind]
		if prec == 0 || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op.Kind, L: left, R: right, Line: op.Line}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case MINUS, BANG, TILDE:
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Kind, X: x, Line: t.Line}, nil
	case AMP:
		p.advance()
		n, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		return &AddrOf{Name: n.Text, Line: n.Line}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case NUMBER:
		p.advance()
		return &NumLit{Val: t.Val, Line: t.Line}, nil
	case LPAREN:
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		p.advance()
		// Qualified: M.f(...)
		if p.cur().Kind == DOT {
			p.advance()
			f, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Module: t.Text, Proc: f.Text, Args: args, Line: t.Line}, nil
		}
		if p.cur().Kind == LPAREN {
			p.advance()
			if t.Text == "cocreate" || t.Text == "settrap" {
				ref, err := p.procRef()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
				return &CallExpr{Proc: t.Text, Args: []Expr{ref}, Line: t.Line}, nil
			}
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Proc: t.Text, Args: args, Line: t.Line}, nil
		}
		return &VarRef{Name: t.Text, Line: t.Line}, nil
	}
	return nil, p.errf(t, "expected expression, found %q", t)
}

func (p *parser) callArgs() ([]Expr, error) {
	var args []Expr
	for p.cur().Kind != RPAREN {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.cur().Kind == COMMA {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return args, nil
}

// procRef parses IDENT or IDENT.IDENT as a procedure reference.
func (p *parser) procRef() (Expr, error) {
	n, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == DOT {
		p.advance()
		f, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		return &ProcRef{Module: n.Text, Proc: f.Text, Line: n.Line}, nil
	}
	return &ProcRef{Proc: n.Text, Line: n.Line}, nil
}
