package relops

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file implements a small SQL dialect over the engine — enough to
// run the paper's Figure 4 pseudo-SQL as actual query text:
//
//	SELECT c1, c2, distance
//	FROM graph
//	INNER JOIN comm1 ON query1 = q1
//	INNER JOIN comm2 ON query2 = q2
//	WHERE modulgain(c1, c2) > 0
//
//	SELECT c2, ARGMAX(distance, c1) AS leader FROM neighbors GROUP BY c2
//
// Supported grammar (case-insensitive keywords):
//
//	query      := SELECT items FROM ident join* [WHERE cond] [GROUP BY idents]
//	join       := INNER JOIN ident ON ident '=' ident
//	items      := item (',' item)*
//	item       := expr [AS ident] | aggregate [AS ident]
//	aggregate  := COUNT '(' '*' ')' | (SUM|MIN|MAX) '(' ident ')'
//	            | ARGMAX '(' ident ',' ident ')'
//	cond       := cmp (AND cmp)*
//	cmp        := expr ('='|'<>'|'<'|'>'|'<='|'>=') expr
//	expr       := term (('+'|'-') term)*
//	term       := factor (('*'|'/') factor)*
//	factor     := number | 'string' | ident | func '(' expr,... ')' | '(' expr ')'
//
// Scalar functions (like the paper's ModulGain) are registered through
// ExecOptions.Funcs as Go closures over float64 arguments.

// ExecOptions configures Exec.
type ExecOptions struct {
	// Funcs registers scalar functions callable from expressions; all
	// arguments and results are float64 (integer columns promote).
	Funcs map[string]func(args ...float64) float64
	// Join configures the physical join plan.
	Join JoinOptions
	// Workers is the group-by parallelism (default 4).
	Workers int
}

// Catalog names the tables visible to a query.
type Catalog map[string]*Table

// Exec parses and executes one SELECT statement against the catalog.
func Exec(cat Catalog, query string, opt ExecOptions) (*Table, error) {
	toks, err := lexSQL(query)
	if err != nil {
		return nil, fmt.Errorf("relops: sql lex: %w", err)
	}
	p := &sqlParser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, fmt.Errorf("relops: sql parse: %w", err)
	}
	out, err := stmt.exec(cat, opt)
	if err != nil {
		return nil, fmt.Errorf("relops: sql exec: %w", err)
	}
	return out, nil
}

// --- lexer ---

type sqlToken struct {
	kind string // "ident", "num", "str", "punct"
	text string
}

func lexSQL(s string) ([]sqlToken, error) {
	var toks []sqlToken
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || s[j] == '.') {
				j++
			}
			toks = append(toks, sqlToken{"num", s[i:j]})
			i = j
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j == len(s) {
				return nil, fmt.Errorf("unterminated string at offset %d", i)
			}
			toks = append(toks, sqlToken{"str", s[i+1 : j]})
			i = j + 1
		case isIdentByte(c):
			j := i
			for j < len(s) && isIdentByte(s[j]) {
				j++
			}
			toks = append(toks, sqlToken{"ident", s[i:j]})
			i = j
		case strings.IndexByte("(),*=+-/", c) >= 0:
			toks = append(toks, sqlToken{"punct", string(c)})
			i++
		case c == '<':
			if i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '>') {
				toks = append(toks, sqlToken{"punct", s[i : i+2]})
				i += 2
			} else {
				toks = append(toks, sqlToken{"punct", "<"})
				i++
			}
		case c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, sqlToken{"punct", ">="})
				i += 2
			} else {
				toks = append(toks, sqlToken{"punct", ">"})
				i++
			}
		default:
			return nil, fmt.Errorf("unexpected byte %q at offset %d", c, i)
		}
	}
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '#'
}

// --- AST ---

type sqlExpr interface{}

type exprIdent struct{ name string }
type exprNum struct {
	f     float64
	i     int64
	isInt bool
}
type exprStr struct{ s string }
type exprBin struct {
	op   string
	l, r sqlExpr
}
type exprCall struct {
	fn   string
	args []sqlExpr
}

type selectItem struct {
	expr sqlExpr // nil when agg != nil
	agg  *Agg
	as   string
}

type joinClause struct {
	table      string
	lkey, rkey string
}

type compareClause struct {
	op   string
	l, r sqlExpr
}

type selectStmt struct {
	items   []selectItem
	from    string
	joins   []joinClause
	where   []compareClause
	groupBy []string
}

// --- parser ---

type sqlParser struct {
	toks []sqlToken
	pos  int
}

func (p *sqlParser) peek() sqlToken {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return sqlToken{}
}

func (p *sqlParser) next() sqlToken {
	t := p.peek()
	p.pos++
	return t
}

func (p *sqlParser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == "ident" && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *sqlParser) expectPunct(s string) error {
	t := p.next()
	if t.kind != "punct" || t.text != s {
		return fmt.Errorf("expected %q, got %q", s, t.text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.next()
	if t.kind != "ident" {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	return strings.ToLower(t.text), nil
}

var aggKeywords = map[string]AggKind{
	"count": Count, "sum": Sum, "min": Min, "max": Max, "argmax": ArgMax,
}

func (p *sqlParser) parseSelect() (*selectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &selectStmt{}
	for {
		item, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		stmt.items = append(stmt.items, item)
		if p.peek().kind == "punct" && p.peek().text == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.from = from
	for p.keyword("inner") {
		if err := p.expectKeyword("join"); err != nil {
			return nil, err
		}
		j := joinClause{}
		if j.table, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		if j.lkey, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if j.rkey, err = p.ident(); err != nil {
			return nil, err
		}
		stmt.joins = append(stmt.joins, j)
	}
	if p.keyword("where") {
		for {
			cmp, err := p.parseCompare()
			if err != nil {
				return nil, err
			}
			stmt.where = append(stmt.where, cmp)
			if !p.keyword("and") {
				break
			}
		}
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			g, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.groupBy = append(stmt.groupBy, g)
			if p.peek().kind == "punct" && p.peek().text == "," {
				p.pos++
				continue
			}
			break
		}
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

func (p *sqlParser) parseItem() (selectItem, error) {
	// Aggregate?
	if t := p.peek(); t.kind == "ident" {
		if kind, isAgg := aggKeywords[strings.ToLower(t.text)]; isAgg &&
			p.pos+1 < len(p.toks) && p.toks[p.pos+1].text == "(" {
			p.pos += 2 // consume name and '('
			agg := &Agg{Kind: kind}
			switch kind {
			case Count:
				if err := p.expectPunct("*"); err != nil {
					return selectItem{}, err
				}
			case ArgMax:
				col, err := p.ident()
				if err != nil {
					return selectItem{}, err
				}
				if err := p.expectPunct(","); err != nil {
					return selectItem{}, err
				}
				arg, err := p.ident()
				if err != nil {
					return selectItem{}, err
				}
				agg.Col, agg.Arg = col, arg
			default:
				col, err := p.ident()
				if err != nil {
					return selectItem{}, err
				}
				agg.Col = col
			}
			if err := p.expectPunct(")"); err != nil {
				return selectItem{}, err
			}
			item := selectItem{agg: agg}
			if p.keyword("as") {
				as, err := p.ident()
				if err != nil {
					return selectItem{}, err
				}
				item.as = as
			}
			return item, nil
		}
	}
	expr, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{expr: expr}
	if p.keyword("as") {
		as, err := p.ident()
		if err != nil {
			return selectItem{}, err
		}
		item.as = as
	}
	return item, nil
}

func (p *sqlParser) parseCompare() (compareClause, error) {
	l, err := p.parseExpr()
	if err != nil {
		return compareClause{}, err
	}
	t := p.next()
	switch t.text {
	case "=", "<>", "<", ">", "<=", ">=":
	default:
		return compareClause{}, fmt.Errorf("expected comparison operator, got %q", t.text)
	}
	r, err := p.parseExpr()
	if err != nil {
		return compareClause{}, err
	}
	return compareClause{op: t.text, l: l, r: r}, nil
}

func (p *sqlParser) parseExpr() (sqlExpr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "punct" && (t.text == "+" || t.text == "-") {
			p.pos++
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = exprBin{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *sqlParser) parseTerm() (sqlExpr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == "punct" && (t.text == "*" || t.text == "/") {
			p.pos++
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = exprBin{op: t.text, l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *sqlParser) parseFactor() (sqlExpr, error) {
	t := p.next()
	switch t.kind {
	case "num":
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, err
			}
			return exprNum{f: f}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return exprNum{i: i, isInt: true, f: float64(i)}, nil
	case "str":
		return exprStr{s: t.text}, nil
	case "ident":
		if p.peek().kind == "punct" && p.peek().text == "(" {
			p.pos++
			call := exprCall{fn: strings.ToLower(t.text)}
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, arg)
				if p.peek().text == "," {
					p.pos++
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return exprIdent{name: strings.ToLower(t.text)}, nil
	case "punct":
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("unexpected token %q", t.text)
}

// --- compiler / executor ---

// compiledExpr evaluates to a value of typ for each row.
type compiledExpr struct {
	typ  Type
	eval func(Row) any
}

func compileExpr(e sqlExpr, t *Table, funcs map[string]func(...float64) float64) (compiledExpr, error) {
	switch x := e.(type) {
	case exprIdent:
		pos, err := t.colPos(x.name)
		if err != nil {
			return compiledExpr{}, err
		}
		name := x.name
		switch t.cols[pos].Type {
		case Int64:
			return compiledExpr{Int64, func(r Row) any { return r.Int(name) }}, nil
		case Float64:
			return compiledExpr{Float64, func(r Row) any { return r.Float(name) }}, nil
		default:
			return compiledExpr{String, func(r Row) any { return r.Str(name) }}, nil
		}
	case exprNum:
		if x.isInt {
			v := x.i
			return compiledExpr{Int64, func(Row) any { return v }}, nil
		}
		v := x.f
		return compiledExpr{Float64, func(Row) any { return v }}, nil
	case exprStr:
		v := x.s
		return compiledExpr{String, func(Row) any { return v }}, nil
	case exprCall:
		fn, ok := funcs[x.fn]
		if !ok {
			return compiledExpr{}, fmt.Errorf("unknown function %q", x.fn)
		}
		args := make([]compiledExpr, len(x.args))
		for i, a := range x.args {
			c, err := compileExpr(a, t, funcs)
			if err != nil {
				return compiledExpr{}, err
			}
			if c.typ == String {
				return compiledExpr{}, fmt.Errorf("function %q: string argument", x.fn)
			}
			args[i] = c
		}
		return compiledExpr{Float64, func(r Row) any {
			vals := make([]float64, len(args))
			for i, a := range args {
				vals[i] = toFloat(a.eval(r))
			}
			return fn(vals...)
		}}, nil
	case exprBin:
		l, err := compileExpr(x.l, t, funcs)
		if err != nil {
			return compiledExpr{}, err
		}
		r, err := compileExpr(x.r, t, funcs)
		if err != nil {
			return compiledExpr{}, err
		}
		if l.typ == String || r.typ == String {
			return compiledExpr{}, fmt.Errorf("arithmetic on strings")
		}
		op := x.op
		if l.typ == Int64 && r.typ == Int64 && op != "/" {
			le, re := l.eval, r.eval
			return compiledExpr{Int64, func(row Row) any {
				a, b := le(row).(int64), re(row).(int64)
				switch op {
				case "+":
					return a + b
				case "-":
					return a - b
				default:
					return a * b
				}
			}}, nil
		}
		le, re := l.eval, r.eval
		return compiledExpr{Float64, func(row Row) any {
			a, b := toFloat(le(row)), toFloat(re(row))
			switch op {
			case "+":
				return a + b
			case "-":
				return a - b
			case "*":
				return a * b
			default:
				return a / b
			}
		}}, nil
	}
	return compiledExpr{}, fmt.Errorf("unsupported expression %T", e)
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	default:
		panic(fmt.Sprintf("relops: non-numeric value %T", v))
	}
}

func (stmt *selectStmt) exec(cat Catalog, opt ExecOptions) (*Table, error) {
	cur, ok := cat[stmt.from]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", stmt.from)
	}
	var err error
	// Joins, in order.
	for _, j := range stmt.joins {
		right, ok := cat[j.table]
		if !ok {
			return nil, fmt.Errorf("unknown table %q", j.table)
		}
		lk, rk := j.lkey, j.rkey
		// Accept the keys in either order, as SQL does.
		if !cur.HasColumn(lk) {
			lk, rk = rk, lk
		}
		cur, err = Join(cur, right, lk, rk, opt.Join)
		if err != nil {
			return nil, err
		}
	}
	// WHERE.
	for _, w := range stmt.where {
		l, err := compileExpr(w.l, cur, opt.Funcs)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(w.r, cur, opt.Funcs)
		if err != nil {
			return nil, err
		}
		if (l.typ == String) != (r.typ == String) {
			return nil, fmt.Errorf("comparing string with number")
		}
		op := w.op
		pred := func(row Row) bool {
			if l.typ == String {
				a, b := l.eval(row).(string), r.eval(row).(string)
				return cmpResult(strings.Compare(a, b), op)
			}
			a, b := toFloat(l.eval(row)), toFloat(r.eval(row))
			switch {
			case a < b:
				return cmpResult(-1, op)
			case a > b:
				return cmpResult(1, op)
			default:
				return cmpResult(0, op)
			}
		}
		cur = Select(cur, pred)
	}

	// Aggregation vs projection.
	hasAgg := false
	for _, it := range stmt.items {
		if it.agg != nil {
			hasAgg = true
		}
	}
	if hasAgg {
		if len(stmt.groupBy) == 0 {
			return nil, fmt.Errorf("aggregates require GROUP BY")
		}
		var aggs []Agg
		for _, it := range stmt.items {
			if it.agg == nil {
				// Must be a bare group key.
				id, ok := it.expr.(exprIdent)
				if !ok || !slices.Contains(stmt.groupBy, id.name) {
					return nil, fmt.Errorf("non-aggregate select item must be a group key")
				}
				continue
			}
			a := *it.agg
			if it.as == "" {
				return nil, fmt.Errorf("aggregate needs AS alias")
			}
			a.As = it.as
			aggs = append(aggs, a)
		}
		grouped, err := GroupBy(cur, stmt.groupBy, aggs, opt.Workers)
		if err != nil {
			return nil, err
		}
		// Order output columns as written.
		var names []string
		for _, it := range stmt.items {
			if it.agg != nil {
				names = append(names, it.as)
			} else {
				names = append(names, it.expr.(exprIdent).name)
			}
		}
		return Project(grouped, names...)
	}

	// Plain projection with computed columns. Computed expressions are
	// materialized under scratch names first, then the output table is
	// assembled column by column so SQL aliases may legally shadow
	// existing column names (SELECT c1 AS query1 ...).
	tmp := cur
	type outCol struct{ src, final string }
	var outs []outCol
	for i, it := range stmt.items {
		if id, ok := it.expr.(exprIdent); ok {
			final := it.as
			if final == "" {
				final = id.name
			}
			outs = append(outs, outCol{src: id.name, final: final})
			continue
		}
		final := it.as
		if final == "" {
			final = fmt.Sprintf("col%d", i)
		}
		scratch := fmt.Sprintf("__sel_%d", i)
		c, err := compileExpr(it.expr, tmp, opt.Funcs)
		if err != nil {
			return nil, err
		}
		tmp, err = Extend(tmp, scratch, c.typ, c.eval)
		if err != nil {
			return nil, err
		}
		outs = append(outs, outCol{src: scratch, final: final})
	}
	out := &Table{idx: map[string]int{}, rows: tmp.rows}
	for _, oc := range outs {
		pos, err := tmp.colPos(oc.src)
		if err != nil {
			return nil, err
		}
		if _, dup := out.idx[oc.final]; dup {
			return nil, fmt.Errorf("duplicate output column %q", oc.final)
		}
		out.idx[oc.final] = len(out.cols)
		out.cols = append(out.cols, Column{Name: oc.final, Type: tmp.cols[pos].Type})
		out.ints = append(out.ints, tmp.ints[pos])
		out.floats = append(out.floats, tmp.floats[pos])
		out.strs = append(out.strs, tmp.strs[pos])
	}
	return out, nil
}

func cmpResult(cmp int, op string) bool {
	switch op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case ">":
		return cmp > 0
	case "<=":
		return cmp <= 0
	default:
		return cmp >= 0
	}
}
