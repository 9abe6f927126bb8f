package pql

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"passv2/internal/graph"
	"passv2/internal/pnode"
	"passv2/internal/record"
)

// ValueKind tags a query result value.
type ValueKind int

const (
	ValNull ValueKind = iota
	ValRef
	ValString
	ValInt
	ValBool
)

// Value is one cell of a query result.
type Value struct {
	Kind ValueKind
	Ref  pnode.Ref
	Name string // display name for refs
	Str  string
	Int  int64
	Bool bool
}

// String renders the value the way the query shell prints it.
func (v Value) String() string {
	var b [64]byte
	return string(v.appendTo(b[:0]))
}

// appendTo appends the String form of v to b and returns the result. It is
// the one definition of a cell's text: projection deduplicates and orders
// rows by it.
func (v Value) appendTo(b []byte) []byte {
	switch v.Kind {
	case ValRef:
		if v.Name != "" {
			b = append(append(b, v.Name...), " ("...)
			return append(v.Ref.AppendTo(b), ')')
		}
		return v.Ref.AppendTo(b)
	case ValString:
		return append(b, v.Str...)
	case ValInt:
		return strconv.AppendInt(b, v.Int, 10)
	case ValBool:
		return strconv.AppendBool(b, v.Bool)
	default:
		return append(b, "null"...)
	}
}

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Run parses and evaluates a query over g (through the planner; see
// plan.go).
func Run(g *graph.Graph, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(g, q)
}

// evaluator carries the expression-evaluation state shared by the planned
// executor (exec.go) and the naive reference evaluator. With memo set,
// INPUT-edge traversals run through a cache — per-query (graph.Memo) or
// shared across queries on a snapshot (graph.SharedMemo).
type evaluator struct {
	g    *graph.Graph
	memo graph.Traversal
}

type tuple map[string]pnode.Ref

// EvalNaive evaluates a parsed query by materializing the full
// cross-product of the FROM bindings and then filtering — the pre-planner
// evaluator, retained verbatim as the reference implementation for the
// planner equivalence suite and the BenchmarkPQLQuery baseline.
func EvalNaive(g *graph.Graph, q *Query) (*Result, error) {
	ev := &evaluator{g: g}
	tuples, err := ev.naiveTuples(q)
	if err != nil {
		return nil, err
	}
	return ev.project(q.Select, tuples)
}

// naiveTuples is the FROM cross-product filtered by the WHERE clause.
func (ev *evaluator) naiveTuples(q *Query) ([]tuple, error) {
	tuples, err := ev.bind(q.Bindings)
	if err != nil || q.Where == nil {
		return tuples, err
	}
	var kept []tuple
	for _, tu := range tuples {
		ok, err := ev.evalBool(q.Where, tu)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, tu)
		}
	}
	return kept, nil
}

// bind produces the tuple set of the FROM clause.
func (ev *evaluator) bind(bindings []Binding) ([]tuple, error) {
	tuples := []tuple{{}}
	for _, b := range bindings {
		var next []tuple
		for _, tu := range tuples {
			refs, err := ev.pathRefs(b.Path, tu)
			if err != nil {
				return nil, err
			}
			for _, r := range refs {
				nt := make(tuple, len(tu)+1)
				for k, v := range tu {
					nt[k] = v
				}
				nt[b.Var] = r
				next = append(next, nt)
			}
		}
		tuples = next
	}
	return tuples, nil
}

// pathRefs evaluates a path expression in the context of a tuple.
func (ev *evaluator) pathRefs(p Path, tu tuple) ([]pnode.Ref, error) {
	var frontier []pnode.Ref
	switch {
	case p.Class != "":
		frontier = ev.classRefs(p.Class)
	case p.RootVar != "":
		r, ok := tu[p.RootVar]
		if !ok {
			return nil, fmt.Errorf("pql: unbound variable %q", p.RootVar)
		}
		frontier = []pnode.Ref{r}
	}
	for _, step := range p.Steps {
		var err error
		frontier, err = ev.applyStep(frontier, step)
		if err != nil {
			return nil, err
		}
	}
	return frontier, nil
}

// classType maps Provenance.<class> to the record TYPE it enumerates; all
// reports the classes that mean "every object".
func classType(class string) (typ string, all bool) {
	switch class {
	case "obj", "object", "any":
		return "", true
	case "file":
		return record.TypeFile, false
	case "proc", "process":
		return record.TypeProc, false
	case "pipe":
		return record.TypePipe, false
	case "session":
		return record.TypeSession, false
	case "operator":
		return record.TypeOperator, false
	case "function":
		return record.TypeFunction, false
	case "invocation":
		return record.TypeInvoke, false
	case "dataset":
		return record.TypeDataset, false
	case "document":
		return record.TypeDocument, false
	default:
		return strings.ToUpper(class), false
	}
}

// classRefs enumerates the roots of Provenance.<class> the naive way:
// typed pnodes, then every version of each.
func (ev *evaluator) classRefs(class string) []pnode.Ref {
	typ, all := classType(class)
	if all {
		return ev.g.AllRefs()
	}
	var out []pnode.Ref
	for _, pn := range ev.g.ByType(typ) {
		for _, v := range ev.g.Versions(pn) {
			out = append(out, pnode.Ref{PNode: pn, Version: v})
		}
	}
	return out
}

// applyStep follows one edge step (with closure) from every frontier ref.
func (ev *evaluator) applyStep(frontier []pnode.Ref, s Step) ([]pnode.Ref, error) {
	follow, err := ev.edgeFunc(s)
	if err != nil {
		return nil, err
	}
	seen := make(map[pnode.Ref]bool)
	var out []pnode.Ref
	add := func(r pnode.Ref) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, start := range frontier {
		switch s.Closure {
		case ClosureNone:
			for _, r := range follow(start) {
				add(r)
			}
		case ClosureOpt:
			add(start)
			for _, r := range follow(start) {
				add(r)
			}
		case ClosureStar, ClosurePlus:
			if s.Closure == ClosureStar {
				add(start)
			}
			if ev.memo != nil && s.Edge == "input" {
				for _, r := range ev.memo.Closure(start, s.Reverse) {
					add(r)
				}
				continue
			}
			visited := map[pnode.Ref]bool{start: true}
			queue := follow(start)
			for len(queue) > 0 {
				n := queue[0]
				queue = queue[1:]
				if visited[n] {
					continue
				}
				visited[n] = true
				add(n)
				queue = append(queue, follow(n)...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

func (ev *evaluator) edgeFunc(s Step) (func(pnode.Ref) []pnode.Ref, error) {
	if s.Edge == "input" {
		if ev.memo != nil {
			if s.Reverse {
				return ev.memo.Dependents, nil
			}
			return ev.memo.Inputs, nil
		}
		if s.Reverse {
			return ev.g.Dependents, nil
		}
		return ev.g.Inputs, nil
	}
	if s.Reverse {
		return nil, fmt.Errorf("pql: reverse traversal of %q is not supported (only input~)", s.Edge)
	}
	attr := record.Attr(strings.ToUpper(s.Edge))
	return func(r pnode.Ref) []pnode.Ref {
		var out []pnode.Ref
		for _, v := range ev.g.AttrValuesAnyVersion(r, attr) {
			if ref, ok := v.AsRef(); ok {
				out = append(out, ref)
			}
		}
		return out
	}, nil
}

// --- expression evaluation ---

func (ev *evaluator) evalBool(e Expr, tu tuple) (bool, error) {
	v, err := ev.eval(e, tu)
	if err != nil {
		return false, err
	}
	return v.Kind == ValBool && v.Bool, nil
}

func (ev *evaluator) eval(e Expr, tu tuple) (Value, error) {
	switch x := e.(type) {
	case *StringLit:
		return Value{Kind: ValString, Str: x.V}, nil
	case *NumberLit:
		return Value{Kind: ValInt, Int: x.V}, nil
	case *BoolLit:
		return Value{Kind: ValBool, Bool: x.V}, nil
	case *VarExpr:
		r, ok := tu[x.Name]
		if !ok {
			return Value{}, fmt.Errorf("pql: unbound variable %q", x.Name)
		}
		name, _ := ev.g.NameOf(r.PNode)
		return Value{Kind: ValRef, Ref: r, Name: name}, nil
	case *AttrExpr:
		r, ok := tu[x.Var]
		if !ok {
			return Value{}, fmt.Errorf("pql: unbound variable %q", x.Var)
		}
		return ev.attrValue(r, x.Attr), nil
	case *NotExpr:
		b, err := ev.evalBool(x.E, tu)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: ValBool, Bool: !b}, nil
	case *ExistsExpr:
		refs, err := ev.pathRefs(x.Path, tu)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: ValBool, Bool: len(refs) > 0}, nil
	case *BinaryExpr:
		return ev.evalBinary(x, tu)
	case *CountExpr:
		return Value{}, fmt.Errorf("pql: count() is only allowed in the select list")
	default:
		return Value{}, fmt.Errorf("pql: unhandled expression %T", e)
	}
}

func (ev *evaluator) attrValue(r pnode.Ref, attr string) Value {
	switch attr {
	case "version":
		return Value{Kind: ValInt, Int: int64(r.Version)}
	case "pnode":
		return Value{Kind: ValInt, Int: int64(uint64(r.PNode))}
	}
	vals := ev.g.AttrValuesAnyVersion(r, record.Attr(strings.ToUpper(attr)))
	if len(vals) == 0 {
		return Value{Kind: ValNull}
	}
	return recordValue(vals[0], ev)
}

func recordValue(v record.Value, ev *evaluator) Value {
	if s, ok := v.AsString(); ok {
		return Value{Kind: ValString, Str: s}
	}
	if i, ok := v.AsInt(); ok {
		return Value{Kind: ValInt, Int: i}
	}
	if b, ok := v.AsBool(); ok {
		return Value{Kind: ValBool, Bool: b}
	}
	if r, ok := v.AsRef(); ok {
		name, _ := ev.g.NameOf(r.PNode)
		return Value{Kind: ValRef, Ref: r, Name: name}
	}
	return Value{Kind: ValNull}
}

func (ev *evaluator) evalBinary(x *BinaryExpr, tu tuple) (Value, error) {
	switch x.Op {
	case "and":
		l, err := ev.evalBool(x.L, tu)
		if err != nil || !l {
			return Value{Kind: ValBool, Bool: false}, err
		}
		r, err := ev.evalBool(x.R, tu)
		return Value{Kind: ValBool, Bool: r}, err
	case "or":
		l, err := ev.evalBool(x.L, tu)
		if err != nil {
			return Value{}, err
		}
		if l {
			return Value{Kind: ValBool, Bool: true}, nil
		}
		r, err := ev.evalBool(x.R, tu)
		return Value{Kind: ValBool, Bool: r}, err
	}
	l, err := ev.eval(x.L, tu)
	if err != nil {
		return Value{}, err
	}
	r, err := ev.eval(x.R, tu)
	if err != nil {
		return Value{}, err
	}
	return compare(x.Op, l, r)
}

func compare(op string, l, r Value) (Value, error) {
	if l.Kind == ValNull || r.Kind == ValNull {
		// Comparisons against missing attributes are false, except that
		// null != x holds when x exists.
		res := op == "!=" && (l.Kind == ValNull) != (r.Kind == ValNull)
		return Value{Kind: ValBool, Bool: res}, nil
	}
	if op == "like" {
		if l.Kind != ValString || r.Kind != ValString {
			return Value{}, fmt.Errorf("pql: like requires strings")
		}
		ok, err := path.Match(r.Str, l.Str)
		if err != nil {
			return Value{}, fmt.Errorf("pql: bad like pattern %q: %v", r.Str, err)
		}
		// Globs anchored like Lorel: also allow substring match when the
		// pattern has no metacharacters.
		if !ok && !strings.ContainsAny(r.Str, "*?[") {
			ok = strings.Contains(l.Str, r.Str)
		}
		return Value{Kind: ValBool, Bool: ok}, nil
	}
	cmp, err := order(l, r)
	if err != nil {
		return Value{}, err
	}
	var res bool
	switch op {
	case "=":
		res = cmp == 0
	case "!=":
		res = cmp != 0
	case "<":
		res = cmp < 0
	case "<=":
		res = cmp <= 0
	case ">":
		res = cmp > 0
	case ">=":
		res = cmp >= 0
	default:
		return Value{}, fmt.Errorf("pql: unknown operator %q", op)
	}
	return Value{Kind: ValBool, Bool: res}, nil
}

func order(l, r Value) (int, error) {
	if l.Kind == ValRef && r.Kind == ValRef {
		switch {
		case l.Ref == r.Ref:
			return 0, nil
		case l.Ref.Less(r.Ref):
			return -1, nil
		default:
			return 1, nil
		}
	}
	if l.Kind == ValInt && r.Kind == ValInt {
		switch {
		case l.Int == r.Int:
			return 0, nil
		case l.Int < r.Int:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if l.Kind == ValString && r.Kind == ValString {
		return strings.Compare(l.Str, r.Str), nil
	}
	if l.Kind == ValBool && r.Kind == ValBool {
		lb, rb := 0, 0
		if l.Bool {
			lb = 1
		}
		if r.Bool {
			rb = 1
		}
		return lb - rb, nil
	}
	return 0, fmt.Errorf("pql: cannot compare %v with %v", l, r)
}

// --- projection ---

// project evaluates the select list over tuples. A row's key is its cells'
// String forms joined by NUL; rows are distinct by key and sorted by the
// key's byte order. Each row is rendered once, into one reused buffer, and
// its key serves both the dedup and the sort.
func (ev *evaluator) project(items []SelectItem, tuples []tuple) (*Result, error) {
	res := &Result{}
	aggregate := false
	for _, it := range items {
		if _, ok := it.Expr.(*CountExpr); ok {
			aggregate = true
		}
		res.Columns = append(res.Columns, columnName(it))
	}
	var buf []byte
	if aggregate {
		row := make([]Value, len(items))
		for i, it := range items {
			c, ok := it.Expr.(*CountExpr)
			if !ok {
				return nil, fmt.Errorf("pql: cannot mix aggregates and plain values in select")
			}
			distinct := make(map[string]struct{})
			for _, tu := range tuples {
				v, err := ev.eval(c.E, tu)
				if err != nil {
					return nil, err
				}
				if v.Kind == ValNull {
					continue
				}
				buf = v.appendTo(buf[:0])
				if _, ok := distinct[string(buf)]; !ok {
					distinct[string(buf)] = struct{}{}
				}
			}
			row[i] = Value{Kind: ValInt, Int: int64(len(distinct))}
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}
	seen := make(map[string]struct{})
	var keys []string
	row := make([]Value, len(items))
	for _, tu := range tuples {
		buf = buf[:0]
		for i, it := range items {
			v, err := ev.eval(it.Expr, tu)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				buf = append(buf, 0)
			}
			buf = v.appendTo(buf)
			row[i] = v
		}
		if _, ok := seen[string(buf)]; ok {
			continue
		}
		key := string(buf)
		seen[key] = struct{}{}
		keys = append(keys, key)
		res.Rows = append(res.Rows, append([]Value(nil), row...))
	}
	sort.Sort(rowsByKey{res.Rows, keys})
	return res, nil
}

// rowsByKey sorts result rows by their rendered keys, moving both together.
type rowsByKey struct {
	rows [][]Value
	keys []string
}

func (s rowsByKey) Len() int           { return len(s.keys) }
func (s rowsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s rowsByKey) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func columnName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *VarExpr:
		return e.Name
	case *AttrExpr:
		return e.Var + "." + e.Attr
	case *CountExpr:
		return "count"
	default:
		return "expr"
	}
}

// Format renders a result as an aligned text table (the query shell uses
// it).
func (r *Result) Format() string {
	if len(r.Rows) == 0 {
		return "(no results)\n"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rendered[i] = make([]string, len(row))
		for j, v := range row {
			rendered[i][j] = v.String()
			if len(rendered[i][j]) > widths[j] {
				widths[j] = len(rendered[i][j])
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
	}
	sb.WriteByte('\n')
	for _, row := range rendered {
		for j, cell := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[j], cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
