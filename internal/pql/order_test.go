package pql

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"passv2/internal/graph"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// oracleString is the fmt-based cell rendering that projection ordered
// rows by before it rendered through Value.appendTo.
func oracleString(v Value) string {
	switch v.Kind {
	case ValRef:
		if v.Name != "" {
			return fmt.Sprintf("%s (%s)", v.Name, fmt.Sprintf("pn:%d@v%d", uint64(v.Ref.PNode), uint32(v.Ref.Version)))
		}
		return fmt.Sprintf("pn:%d@v%d", uint64(v.Ref.PNode), uint32(v.Ref.Version))
	case ValString:
		return v.Str
	case ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ValBool:
		return fmt.Sprintf("%t", v.Bool)
	default:
		return "null"
	}
}

func oracleRenderRow(row []Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = oracleString(v)
	}
	return strings.Join(parts, "\x00")
}

// oracleProject is the projection as it was when every comparison of the
// final sort re-rendered both rows: the reference for row order.
func (ev *evaluator) oracleProject(items []SelectItem, tuples []tuple) (*Result, error) {
	res := &Result{}
	aggregate := false
	for _, it := range items {
		if _, ok := it.Expr.(*CountExpr); ok {
			aggregate = true
		}
		res.Columns = append(res.Columns, columnName(it))
	}
	if aggregate {
		row := make([]Value, len(items))
		for i, it := range items {
			c, ok := it.Expr.(*CountExpr)
			if !ok {
				return nil, fmt.Errorf("pql: cannot mix aggregates and plain values in select")
			}
			distinct := make(map[string]bool)
			for _, tu := range tuples {
				v, err := ev.eval(c.E, tu)
				if err != nil {
					return nil, err
				}
				if v.Kind != ValNull {
					distinct[oracleString(v)] = true
				}
			}
			row[i] = Value{Kind: ValInt, Int: int64(len(distinct))}
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}
	seen := make(map[string]bool)
	for _, tu := range tuples {
		row := make([]Value, len(items))
		for i, it := range items {
			v, err := ev.eval(it.Expr, tu)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		key := oracleRenderRow(row)
		if !seen[key] {
			seen[key] = true
			res.Rows = append(res.Rows, row)
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return oracleRenderRow(res.Rows[i]) < oracleRenderRow(res.Rows[j])
	})
	return res, nil
}

// orderGraph holds the cases where a key's byte order differs from a
// typed order: pnodes and versions crossing 9→10 and 99→100, objects with
// and without names, names and strings containing " (", a string that
// renders exactly like a ref, a string holding a control byte (so that
// only a NUL separator gives the pinned order), and one attribute holding
// every kind.
func orderGraph() *graph.Graph {
	db := waldo.NewDB()
	pns := []uint64{1, 2, 9, 10, 11, 99, 100, 101, 1000}
	names := []string{"a", "", "a (", "b (pn:1@v1)", "", "b", "a", "", "10"}
	params := []record.Value{
		record.Int(10), record.Int(9), record.StringVal("x (y)"), record.Bool(true),
		record.Ref(ref(2, 1)), record.StringVal("pn:2@v1"), record.Ref(ref(1, 10)), record.Int(-1), record.Bool(false),
		record.StringVal("10\x01"),
	}
	for i, p := range pns {
		for v := uint32(1); v <= uint32(1+i%4*4); v++ { // up to 13 versions
			r := ref(p, v)
			db.Apply(record.New(r, record.AttrType, record.StringVal(record.TypeFile)))
			if names[i] != "" && v == 1 {
				db.Apply(record.New(r, record.AttrName, record.StringVal(names[i])))
			}
			if v%3 != 0 {
				db.Apply(record.New(r, record.AttrParams, params[(i+int(v))%len(params)]))
			}
			if i > 0 && v%2 == 1 {
				db.Apply(record.Input(r, ref(pns[(i+int(v))%i], v)))
			}
		}
	}
	return graph.New(db)
}

// orderQueries are multi-column, mixed-kind selects for the order pin.
var orderQueries = []string{
	`select F from Provenance.obj as F`,
	`select F, F.version from Provenance.obj as F`,
	`select F.pnode, F.version from Provenance.obj as F`,
	`select F.version, F.pnode, F.name from Provenance.obj as F`,
	`select F.name, F.params from Provenance.obj as F`,
	`select F.params, F from Provenance.obj as F`,
	`select F.params from Provenance.obj as F`,
	`select F.missing, F.name, F.missing from Provenance.obj as F`,
	`select F.input, F.version from Provenance.obj as F`,
	`select A, F.name from Provenance.obj as F F.input* as A`,
	`select A.version, A, F.pnode from Provenance.obj as F F.input+ as A`,
	`select D.pnode, D.name from Provenance.obj as F F.input~* as D where F.version >= 9`,
	`select count(F.params), count(F.name), count(F), count(F.version), count(F.missing) from Provenance.obj as F`,
	`select count(A.params), count(A.input) from Provenance.obj as F F.input* as A`,
}

// TestProjectMatchesOracleOrder pins the result-row order: projection must
// return the same rows, in the same order, as the oracle that re-rendered
// rows with fmt on every comparison. Both sides project the same tuples,
// so this catches what the naive-vs-planned suite cannot (both of its
// sides share project).
func TestProjectMatchesOracleOrder(t *testing.T) {
	check := func(name string, g *graph.Graph, src string) {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ev := &evaluator{g: g}
		tuples, err := ev.naiveTuples(q)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, src, err)
		}
		got, err := ev.project(q.Select, tuples)
		if err != nil {
			t.Fatalf("%s: %q: %v", name, src, err)
		}
		want, err := ev.oracleProject(q.Select, tuples)
		if err != nil {
			t.Fatalf("%s: %q: oracle: %v", name, src, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %q:\ngot:\n%s\nwant:\n%s", name, src, got.Format(), want.Format())
		}
		for _, row := range got.Rows {
			for _, v := range row {
				if s, w := v.String(), oracleString(v); s != w {
					t.Fatalf("%s: %q: cell renders %q, oracle %q", name, src, s, w)
				}
			}
		}
	}
	og := orderGraph()
	for _, src := range append(orderQueries, equivalenceQueries...) {
		check("order graph", og, src)
	}
	for seed := int64(0); seed < 25; seed++ {
		dbs := randomSources(rand.New(rand.NewSource(seed)))
		srcs := make([]graph.Source, len(dbs))
		for i, db := range dbs {
			srcs[i] = db
		}
		g := graph.New(srcs...)
		for _, src := range append(equivalenceQueries, orderQueries...) {
			check(fmt.Sprintf("seed %d", seed), g, src)
		}
	}
}

// chainGraph is n files, each reading the one before it; "top" is last.
func chainGraph(n int) *graph.Graph {
	db := waldo.NewDB()
	for i := 1; i <= n; i++ {
		r := pnode.Ref{PNode: pnode.PNode(i), Version: 1}
		db.Apply(record.New(r, record.AttrType, record.StringVal(record.TypeFile)))
		name := fmt.Sprintf("f%d", i)
		if i == n {
			name = "top"
		}
		db.Apply(record.New(r, record.AttrName, record.StringVal(name)))
		if i > 1 {
			db.Apply(record.Input(r, pnode.Ref{PNode: pnode.PNode(i - 1), Version: 1}))
		}
	}
	return graph.New(db)
}

// TestProjectAllocsLinear pins that projection renders each row once: its
// allocations per row do not grow with the row count, as they did while
// the sort comparator re-rendered rows (O(n log n) renders).
func TestProjectAllocsLinear(t *testing.T) {
	q, err := Parse(`select A, A.version from Provenance.file as F F.input* as A where F.name = "top"`)
	if err != nil {
		t.Fatal(err)
	}
	perRow := func(n int) float64 {
		ev := &evaluator{g: chainGraph(n)}
		tuples, err := ev.naiveTuples(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != n {
			t.Fatalf("closure of a %d-chain has %d tuples", n, len(tuples))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ev.project(q.Select, tuples); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(n)
	}
	small, large := perRow(100), perRow(400)
	t.Logf("allocations per row: %.2f at 100 rows, %.2f at 400 rows", small, large)
	if large > small {
		t.Fatalf("allocations per row grew from %.2f at 100 rows to %.2f at 400 rows", small, large)
	}
}
