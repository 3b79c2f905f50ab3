// Package parser builds IDL abstract syntax from source text.
//
// The concrete syntax follows the paper with these conventions:
//
//   - `?` begins a query / update request; rules use `<-` (or `←`),
//     update-program clauses use `->` (or `→`).
//   - Negation is written `~`, `!` or `¬` and may prefix any expression,
//     including a whole conjunct (`~.euter.r(...)`) or a suffix
//     (`.euter.r~(...)`) as the paper writes it.
//   - Update signs `+`/`-` may prefix a set expression (`.r+(...)`), an
//     attribute conjunct (`-.hp=C`, `.ource-.S`) or an atomic expression
//     (`.hp-=C`, `+=5`), mirroring §5's three update-expression forms.
//   - Datalog-style constraints (`X = ource`, footnote 7) are accepted as
//     conjuncts.
//   - Arithmetic `+ - *` with the usual precedence is accepted in term
//     position (footnote 8).
//   - Statements in a script are separated by `;`. A lone trailing `.`
//     (the paper's sentence-final period) is tolerated at statement end.
//   - Comments run from `%` or `//` to end of line.
package parser

import (
	"fmt"
	"strings"

	"idl/internal/ast"
	"idl/internal/lex"
	"idl/internal/object"
)

// Error is a parse error with source position.
type Error struct {
	Pos lex.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at %s: %s", e.Pos, e.Msg) }

type parser struct {
	src  string
	toks []lex.Token
	pos  int

	// record makes the parser note, in lits, where each value-position
	// constant it builds came from (see shape.go).
	record bool
	lits   []litRef
}

// Parse parses a single statement (query, rule, or update-program clause).
func Parse(src string) (ast.Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	return p.statement()
}

// ParseQuery parses a single query or update request (with or without the
// leading `?`).
func ParseQuery(src string) (*ast.Query, error) {
	p, err := newParser(querySource(src))
	if err != nil {
		return nil, err
	}
	return p.query()
}

// querySource normalises a query's source the way every query entry
// point reads it: trimmed, with the leading `?` supplied when missing.
func querySource(src string) string {
	src = strings.TrimSpace(src)
	if !strings.HasPrefix(src, "?") {
		src = "?" + src
	}
	return src
}

// ParseRule parses a single view rule `head <- body`.
func ParseRule(src string) (*ast.Rule, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	r, ok := st.(*ast.Rule)
	if !ok {
		return nil, &Error{Pos: lex.Pos{Line: 1, Col: 1}, Msg: "statement is not a rule"}
	}
	return r, nil
}

// ParseClause parses a single update-program clause `head -> body`.
func ParseClause(src string) (*ast.Clause, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, ok := st.(*ast.Clause)
	if !ok {
		return nil, &Error{Pos: lex.Pos{Line: 1, Col: 1}, Msg: "statement is not an update-program clause"}
	}
	return c, nil
}

// ParseProgram parses a `;`-separated sequence of statements. A lexical
// error anywhere in src is reported before any parse error.
func ParseProgram(src string) ([]ast.Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	return p.program()
}

// newParser lexes src; a lexical error is the parse's error. The parser
// is returned by value, so it stays on its caller's stack.
func newParser(src string) (parser, error) {
	toks, err := tokens(src)
	return parser{src: src, toks: toks}, err
}

// tokens lexes src, reporting a lexical error as a parse error.
func tokens(src string) ([]lex.Token, error) {
	toks, lerr := lex.Tokens(src)
	if lerr != nil {
		return nil, &Error{Pos: lex.PosAt(src, lerr.Off), Msg: lerr.Msg}
	}
	return toks, nil
}

// program parses the whole token stream as `;`-separated statements.
func (p *parser) program() ([]ast.Statement, error) {
	var stmts []ast.Statement
	for {
		for p.at(lex.SEMI) {
			p.next()
		}
		if p.at(lex.EOF) {
			return stmts, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		// Tolerate the paper's sentence-final period before a separator.
		if p.at(lex.DOT) && (p.peekKind(1) == lex.SEMI || p.peekKind(1) == lex.EOF) {
			p.next()
		}
		if !p.at(lex.SEMI) && !p.at(lex.EOF) {
			return nil, p.errorf("expected ';' or end of input, found %s", p.found())
		}
	}
}

// statement parses the token stream as exactly one statement.
func (p *parser) statement() (ast.Statement, error) {
	stmts, err := p.program()
	if err != nil {
		return nil, err
	}
	switch len(stmts) {
	case 0:
		return nil, &Error{Pos: lex.Pos{Line: 1, Col: 1}, Msg: "empty input"}
	case 1:
		return stmts[0], nil
	default:
		return nil, &Error{Pos: lex.Pos{Line: 1, Col: 1}, Msg: fmt.Sprintf("expected one statement, found %d", len(stmts))}
	}
}

// query parses the token stream as exactly one query.
func (p *parser) query() (*ast.Query, error) {
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	q, ok := st.(*ast.Query)
	if !ok {
		return nil, &Error{Pos: lex.Pos{Line: 1, Col: 1}, Msg: "statement is not a query"}
	}
	return q, nil
}

// cur returns the current token by value: a Token is twelve bytes.
func (p *parser) cur() lex.Token { return p.toks[p.pos] }

func (p *parser) kind() lex.Kind { return p.toks[p.pos].Kind }

func (p *parser) at(k lex.Kind) bool { return p.toks[p.pos].Kind == k }

func (p *parser) peekKind(ahead int) lex.Kind {
	i := p.pos + ahead
	if i >= len(p.toks) {
		return lex.EOF
	}
	return p.toks[i].Kind
}

// next consumes the current token and returns it.
func (p *parser) next() lex.Token {
	t := p.toks[p.pos]
	if t.Kind != lex.EOF {
		p.pos++
	}
	return t
}

// text returns t's text (a STRING's unquoted value) from the source.
func (p *parser) text(t lex.Token) string { return t.Text(p.src) }

// found describes the current token for an error message.
func (p *parser) found() string { return p.cur().Describe(p.src) }

func (p *parser) expect(k lex.Kind) error {
	if !p.at(k) {
		return p.errorf("expected %s, found %s", k, p.found())
	}
	p.next()
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: lex.PosAt(p.src, int(p.cur().Off)), Msg: fmt.Sprintf(format, args...)}
}

// parseStatement dispatches on the leading token: `?` means query;
// otherwise a tuple expression followed by `<-` (rule) or `->` (clause).
func (p *parser) parseStatement() (ast.Statement, error) {
	if p.at(lex.QUESTION) {
		p.next()
		body, err := p.parseTupleExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Query{Body: body}, nil
	}
	head, err := p.parseTupleExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(lex.LARROW):
		p.next()
		body, err := p.parseTupleExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Rule{Head: head, Body: body}, nil
	case p.at(lex.RARROW):
		p.next()
		body, err := p.parseTupleExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Clause{Head: head, Body: body}, nil
	default:
		return nil, p.errorf("expected '<-' or '->' after head expression, found %s", p.found())
	}
}

// parseTupleExpr parses a comma-separated conjunct list.
func (p *parser) parseTupleExpr() (*ast.TupleExpr, error) {
	te := &ast.TupleExpr{}
	for {
		c, err := p.parseConjunct()
		if err != nil {
			return nil, err
		}
		te.Conjuncts = append(te.Conjuncts, c)
		if !p.at(lex.COMMA) {
			return te, nil
		}
		p.next()
	}
}

// parseConjunct parses one conjunct: an optionally negated/signed
// attribute expression, or a constraint.
func (p *parser) parseConjunct() (ast.Expr, error) {
	if p.at(lex.NOT) {
		p.next()
		inner, err := p.parseConjunct()
		if err != nil {
			return nil, err
		}
		return &ast.Not{X: inner}, nil
	}
	sign := p.parseSign()
	if p.at(lex.DOT) {
		a, err := p.parseAttrExpr()
		if err != nil {
			return nil, err
		}
		a.Sign = sign
		return a, nil
	}
	if sign != ast.SignNone {
		return nil, p.errorf("expected '.' after update sign, found %s", p.found())
	}
	// Constraint conjunct: Term Relop Term (footnote 7).
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	op, ok := p.parseRelop()
	if !ok {
		return nil, p.errorf("expected comparison operator in constraint, found %s", p.found())
	}
	r, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return &ast.Constraint{L: l, Op: op, R: r}, nil
}

func (p *parser) parseSign() ast.Sign {
	switch {
	case p.at(lex.PLUS):
		p.next()
		return ast.SignPlus
	case p.at(lex.MINUS):
		p.next()
		return ast.SignMinus
	default:
		return ast.SignNone
	}
}

// parseAttrExpr parses `.name suffix`, where suffix continues the path,
// compares, negates, recurses into a set expression, or is ε.
func (p *parser) parseAttrExpr() (*ast.AttrExpr, error) {
	if err := p.expect(lex.DOT); err != nil {
		return nil, err
	}
	name, err := p.parseAttrName()
	if err != nil {
		return nil, err
	}
	suffix, err := p.parseSuffix()
	if err != nil {
		return nil, err
	}
	return &ast.AttrExpr{Name: name, Expr: suffix}, nil
}

func (p *parser) parseAttrName() (ast.Term, error) {
	switch p.kind() {
	case lex.IDENT, lex.STRING:
		return ast.Const{Value: object.Str(p.text(p.next()))}, nil
	case lex.VAR:
		return ast.Var{Name: p.text(p.next())}, nil
	default:
		// A numeric name is written quoted (`."5"`), as it prints: a
		// bare number after a dot would read as a float (`.5`) to the
		// lexer but as a name here.
		return nil, p.errorf("expected attribute name, found %s", p.found())
	}
}

// parseSuffix parses what follows an attribute name inside an attribute
// expression.
func (p *parser) parseSuffix() (ast.Expr, error) {
	switch p.kind() {
	case lex.DOT:
		// Path continuation: `.a.b…` — a nested single-conjunct tuple
		// expression. A dot not followed by a name is the paper's
		// sentence-final period; leave it for the statement level.
		switch p.peekKind(1) {
		case lex.IDENT, lex.STRING, lex.VAR:
		default:
			return ast.Epsilon{}, nil
		}
		inner, err := p.parseAttrExpr()
		if err != nil {
			return nil, err
		}
		return &ast.TupleExpr{Conjuncts: []ast.Expr{inner}}, nil
	case lex.NOT:
		p.next()
		inner, err := p.parseSuffix()
		if err != nil {
			return nil, err
		}
		if _, isEps := inner.(ast.Epsilon); isEps {
			return nil, p.errorf("'~' must be followed by an expression")
		}
		return &ast.Not{X: inner}, nil
	case lex.LPAREN:
		return p.parseSetExpr(ast.SignNone)
	case lex.EQ, lex.NE, lex.LT, lex.LE, lex.GT, lex.GE:
		return p.parseAtomic(ast.SignNone)
	case lex.PLUS, lex.MINUS:
		// Signed suffix: `+(…)`, `-(…)`, `+=c`, `-=c`, `-.attr…`.
		return p.parseSignedSuffix()
	default:
		return ast.Epsilon{}, nil
	}
}

func (p *parser) parseSignedSuffix() (ast.Expr, error) {
	sign := p.parseSign()
	switch p.kind() {
	case lex.LPAREN:
		return p.parseSetExpr(sign)
	case lex.EQ:
		return p.parseAtomic(sign)
	case lex.DOT:
		inner, err := p.parseAttrExpr()
		if err != nil {
			return nil, err
		}
		inner.Sign = sign
		return &ast.TupleExpr{Conjuncts: []ast.Expr{inner}}, nil
	default:
		return nil, p.errorf("expected '(', '=' or '.' after update sign, found %s", p.found())
	}
}

func (p *parser) parseSetExpr(sign ast.Sign) (ast.Expr, error) {
	if err := p.expect(lex.LPAREN); err != nil {
		return nil, err
	}
	if p.at(lex.RPAREN) {
		// `()` — exists any element / insert an empty object.
		p.next()
		return &ast.SetExpr{Sign: sign, X: ast.Epsilon{}}, nil
	}
	inner, err := p.parseInnerExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(lex.RPAREN); err != nil {
		return nil, err
	}
	return &ast.SetExpr{Sign: sign, X: inner}, nil
}

// parseInnerExpr parses the expression inside parentheses: a conjunct
// list, an atomic comparison, a negation, or a nested set expression.
func (p *parser) parseInnerExpr() (ast.Expr, error) {
	switch p.kind() {
	case lex.EQ, lex.NE, lex.LT, lex.LE, lex.GT, lex.GE:
		return p.parseAtomic(ast.SignNone)
	case lex.LPAREN:
		if p.opensConstraint(0) {
			return p.parseTupleExpr()
		}
		return p.parseSetExpr(ast.SignNone)
	case lex.NOT:
		if p.opensConstraint(1) {
			// `~(X * 2) = 4, …`: the negation is the first conjunct's.
			return p.parseTupleExpr()
		}
		switch p.peekKind(1) {
		case lex.EQ, lex.NE, lex.LT, lex.LE, lex.GT, lex.GE, lex.LPAREN:
			// `~=c`, `~(...)`: negate an atomic or set expression.
			p.next()
			inner, err := p.parseInnerExpr()
			if err != nil {
				return nil, err
			}
			return &ast.Not{X: inner}, nil
		default:
			// `~.attr …`: per-conjunct negation inside a conjunct list.
			return p.parseTupleExpr()
		}
	case lex.PLUS, lex.MINUS:
		// Signed forms: `+=c`, `-(…)`, `-.attr`, or a conjunct list
		// starting with a signed conjunct.
		if p.peekKind(1) == lex.DOT {
			return p.parseTupleExpr()
		}
		sign := p.parseSign()
		switch p.kind() {
		case lex.EQ:
			return p.parseAtomic(sign)
		case lex.LPAREN:
			return p.parseSetExpr(sign)
		default:
			return nil, p.errorf("expected '=', '(' or '.' after update sign, found %s", p.found())
		}
	default:
		return p.parseTupleExpr()
	}
}

// opensConstraint reports whether a parenthesised term followed by a
// comparison starts ahead tokens from here: the first constraint of a
// conjunct list, as in `((X * 2) = 4)`, the printed form of `(X*2=4)` —
// not a nested set expression, which its enclosing ')' always follows.
// A term holds no set expression, so the look-ahead is linear.
func (p *parser) opensConstraint(ahead int) bool {
	if p.peekKind(ahead) != lex.LPAREN {
		return false
	}
	start, lifted := p.pos, len(p.lits)
	defer func() { p.pos, p.lits = start, p.lits[:lifted] }()
	p.pos += ahead
	_, err := p.parseTerm()
	_, relop := p.parseRelop()
	return err == nil && relop
}

func (p *parser) parseRelop() (ast.RelOp, bool) {
	var op ast.RelOp
	switch p.kind() {
	case lex.EQ:
		op = ast.OpEQ
	case lex.NE:
		op = ast.OpNE
	case lex.LT:
		op = ast.OpLT
	case lex.LE:
		op = ast.OpLE
	case lex.GT:
		op = ast.OpGT
	case lex.GE:
		op = ast.OpGE
	default:
		return 0, false
	}
	p.next()
	return op, true
}

func (p *parser) parseAtomic(sign ast.Sign) (ast.Expr, error) {
	op, ok := p.parseRelop()
	if !ok {
		return nil, p.errorf("expected comparison operator, found %s", p.found())
	}
	// The paper's `.hp-=C` sugar arrives here as `=` after a '-' sign;
	// signed atomics only allow `=` (simple expressions).
	if sign != ast.SignNone && op != ast.OpEQ {
		return nil, p.errorf("update atomic expressions must use '='")
	}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return &ast.Atomic{Sign: sign, Op: op, Term: t}, nil
}

// Term parsing with precedence: mul binds tighter than add/sub. A '+' or
// '-' continues the term only when a primary follows — `=C+10` is
// arithmetic while `(.a=B, +.c=5)` starts a new signed conjunct.

func (p *parser) parseTerm() (ast.Term, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op byte
		switch {
		case p.at(lex.PLUS) && p.startsPrimary(1):
			op = '+'
		case p.at(lex.MINUS) && p.startsPrimary(1):
			op = '-'
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = ast.Arith{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (ast.Term, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(lex.STAR) {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = ast.Arith{Op: '*', L: l, R: r}
	}
	return l, nil
}

func (p *parser) startsPrimary(ahead int) bool {
	switch p.peekKind(ahead) {
	case lex.INT, lex.FLOAT, lex.DATE, lex.STRING, lex.IDENT, lex.VAR, lex.LPAREN:
		return true
	default:
		return false
	}
}

// parsePrimary parses a primary term. Every constant it builds sits in
// value position, where a plan lifts it into a literal slot, so it is
// lifted here too when the parser records (see shape.go).
func (p *parser) parsePrimary() (ast.Term, error) {
	switch p.kind() {
	case lex.INT, lex.FLOAT, lex.DATE, lex.STRING:
		p.lift(len(p.lits), p.pos)
		return ast.Const{Value: literal(p.next(), p.src)}, nil
	case lex.IDENT:
		// An identifier's text is part of its shape's key: every
		// statement of the shape has this value.
		p.lift(len(p.lits), -1)
		switch text := p.text(p.next()); text {
		case "null":
			return ast.Const{Value: object.Null{}}, nil
		case "true":
			return ast.Const{Value: object.Bool(true)}, nil
		case "false":
			return ast.Const{Value: object.Bool(false)}, nil
		default:
			return ast.Const{Value: object.Str(text)}, nil
		}
	case lex.VAR:
		return ast.Var{Name: p.text(p.next())}, nil
	case lex.MINUS:
		// Unary minus on a numeric literal.
		p.next()
		lifted := len(p.lits)
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if c, ok := inner.(ast.Const); ok {
			if v, ok := negate(c.Value); ok {
				p.negateLift(lifted)
				return ast.Const{Value: v}, nil
			}
		}
		// The 0 of `0 - inner` comes first in walk order.
		p.lift(lifted, -1)
		return ast.Arith{Op: '-', L: ast.Const{Value: object.Int(0)}, R: inner}, nil
	case lex.LPAREN:
		p.next()
		inner, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if err := p.expect(lex.RPAREN); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errorf("expected a term, found %s", p.found())
	}
}
