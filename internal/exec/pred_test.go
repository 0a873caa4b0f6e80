package exec

import (
	"fmt"
	"math"
	"testing"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// predValues covers every kind with the edge cases value.Compare
// treats specially: NULL, NaN, ±0.0, ±Inf, integral floats beside the
// equal integers, BOOL beside 0 and 1, and strings that parse as the
// DATE values next to them.
func predValues(t *testing.T) []value.Value {
	t.Helper()
	date := func(s string) value.Value {
		d, err := value.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return []value.Value{
		value.Null,
		value.NewBool(false), value.NewBool(true),
		value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(1 << 53), value.NewInt(1<<53 + 1),
		value.NewFloat(math.NaN()), value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(1), value.NewFloat(1.5), value.NewFloat(-2.25), value.NewFloat(1 << 53),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewString(""), value.NewString("1"), value.NewString("a"), value.NewString("ab"), value.NewString("b"),
		value.NewString("1995-03-15"), value.NewString("1995-03-16"),
		date("1995-03-15"), date("1995-03-16"), date("1970-01-01"),
	}
}

// claims is the kind-pair table of quickPred's doc comment, written out
// independently of the implementation: the pairs the fast path must
// claim. Every other pair must be left to the interpreter.
func claims(constKind, rowKind value.Kind) bool {
	numeric := func(k value.Kind) bool {
		return k == value.KindInt || k == value.KindBool || k == value.KindFloat
	}
	switch {
	case constKind == value.KindNull || rowKind == value.KindNull:
		return true
	case numeric(constKind) && numeric(rowKind):
		return true
	case constKind == rowKind:
		return constKind == value.KindDate || constKind == value.KindString
	}
	return false
}

var cmpOps = []plan.CmpOp{plan.CmpEq, plan.CmpNe, plan.CmpLt, plan.CmpLe, plan.CmpGt, plan.CmpGe}

// TestQuickPredMatchesInterpreter: over every kind pair, every
// comparison operator and both orientations (`col op k`, `k op col`),
// with the constant a literal or a prepared-statement parameter, the
// compiled predicate claims exactly the pairs of the kind-pair table,
// and every row it claims gets the interpreter's verdict. A two-term
// conjunction of claimed terms matches the interpreter's And too.
func TestQuickPredMatchesInterpreter(t *testing.T) {
	vals := predValues(t)
	col := &plan.Col{Idx: 0}
	param := &plan.Param{Idx: 0}
	type shape struct {
		name  string
		build func(op plan.CmpOp, k plan.Expr) plan.Expr
	}
	shapes := []shape{
		{"col op k", func(op plan.CmpOp, k plan.Expr) plan.Expr { return &plan.Cmp{Op: op, L: col, R: k} }},
		{"k op col", func(op plan.CmpOp, k plan.Expr) plan.Expr { return &plan.Cmp{Op: op, L: k, R: col} }},
	}
	claimed := 0
	for _, k := range vals {
		for _, asParam := range []bool{false, true} {
			ctx := NewCtx(nil)
			var kx plan.Expr = &plan.Const{V: k}
			if asParam {
				ctx.Eval.Params = []value.Value{k}
				kx = param
			}
			for _, sh := range shapes {
				for _, op := range cmpOps {
					e := sh.build(op, kx)
					q := compilePred(e)
					q.bind(ctx)
					if !q.ok {
						t.Fatalf("%s with k=%v (param %v): fast path off", sh.name, k, asParam)
					}
					for _, v := range vals {
						row := value.Row{v}
						got, handled := q.eval(row)
						desc := fmt.Sprintf("%s %s, k=%s %v, row %s %v, param %v", sh.name, op, k.Kind, k, v.Kind, v, asParam)
						if want := claims(k.Kind, v.Kind); handled != want {
							t.Errorf("%s: handled = %v, want %v", desc, handled, want)
							continue
						}
						if !handled {
							continue
						}
						claimed++
						iv, err := e.Eval(ctx.Eval, row)
						if err != nil {
							t.Fatalf("%s: interpreter: %v", desc, err)
						}
						if want := value.TriFromValue(iv); got != want {
							t.Errorf("%s: fast path = %v, interpreter = %v", desc, got, want)
						}
					}
				}
			}
		}
	}
	if claimed == 0 {
		t.Fatal("the fast path claimed no row")
	}

	// Two-term conjunctions over a two-column row: the flattened scan
	// must stop and combine exactly as And does.
	ctx := NewCtx(nil)
	for _, a := range vals {
		for _, b := range vals {
			if !claims(value.KindInt, a.Kind) || !claims(value.KindString, b.Kind) {
				continue
			}
			e := &plan.And{
				L: &plan.Cmp{Op: plan.CmpGe, L: &plan.Col{Idx: 0}, R: &plan.Const{V: value.NewInt(1)}},
				R: &plan.Cmp{Op: plan.CmpLt, L: &plan.Const{V: value.NewString("ab")}, R: &plan.Col{Idx: 1}},
			}
			q := compilePred(e)
			q.bind(ctx)
			row := value.Row{a, b}
			got, handled := q.eval(row)
			if !handled {
				t.Fatalf("row %v: conjunction of claimed terms not handled", row)
			}
			iv, err := e.Eval(ctx.Eval, row)
			if err != nil {
				t.Fatal(err)
			}
			if want := value.TriFromValue(iv); got != want {
				t.Errorf("row %v: fast path = %v, interpreter = %v", row, got, want)
			}
		}
	}
}
