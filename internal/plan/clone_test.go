package plan

import (
	"testing"

	"auditdb/internal/value"
)

type stubSink struct{ seen int }

func (s *stubSink) Observe(value.Value) { s.seen++ }

// TestCloneNodeIsolatesMutableState: CloneNode exists so that adopted
// copies of a shared plan template can have their Audit sinks rebound
// per execution. Node structs must be fresh; sinks set on the clone
// must not leak into the template.
func TestCloneNodeIsolatesMutableState(t *testing.T) {
	origSink := &stubSink{}
	tmpl := &Audit{
		Child: &Filter{
			Child: &Scan{Table: "patients", Alias: "p"},
			Pred:  &Cmp{Op: CmpEq, L: &Col{Idx: 0, Name: "id"}, R: &Const{V: value.NewInt(7)}},
		},
		Name:  "X",
		IDIdx: 0,
		Sink:  origSink,
	}

	c := CloneNode(tmpl).(*Audit)
	if c == tmpl {
		t.Fatal("CloneNode returned the template itself")
	}
	if c.Child == tmpl.Child {
		t.Fatal("clone shares the child node struct")
	}
	c.Sink = &stubSink{}
	if tmpl.Sink != AuditSink(origSink) {
		t.Fatal("rebinding the clone's sink mutated the template")
	}

	// Plain expressions carry no per-execution state and stay shared —
	// that is what keeps adoption cheap.
	if c.Child.(*Filter).Pred != tmpl.Child.(*Filter).Pred {
		t.Fatal("subquery-free expression was deep-cloned needlessly")
	}
}

// TestCloneNodeDeepClonesSubqueryPlans: a Subquery expression owns a
// whole plan tree whose Audit operators are rebound per execution (and
// whose evaluation cache is keyed by plan identity), so expressions on
// a path containing a subquery must be deep-cloned, the inner plan
// included.
func TestCloneNodeDeepClonesSubqueryPlans(t *testing.T) {
	innerSink := &stubSink{}
	inner := &Audit{
		Child: &Scan{Table: "patients"},
		Name:  "Y",
		Sink:  innerSink,
	}
	tmpl := &Filter{
		Child: &Scan{Table: "disease"},
		Pred: &And{
			L: &Cmp{Op: CmpEq, L: &Col{Idx: 0}, R: &Subquery{Kind: SubqScalar, Plan: inner}},
			R: &Cmp{Op: CmpEq, L: &Col{Idx: 1}, R: &Const{V: value.NewInt(1)}},
		},
	}

	c := CloneNode(tmpl).(*Filter)
	cp, ok := c.Pred.(*And)
	if !ok || c.Pred == tmpl.Pred {
		t.Fatalf("subquery-bearing predicate not cloned: %T", c.Pred)
	}
	csq := cp.L.(*Cmp).R.(*Subquery)
	if csq == tmpl.Pred.(*And).L.(*Cmp).R.(*Subquery) {
		t.Fatal("Subquery expression struct shared with template")
	}
	if csq.Plan == inner {
		t.Fatal("subquery plan tree shared with template")
	}
	ca := csq.Plan.(*Audit)
	ca.Sink = &stubSink{}
	if inner.Sink != AuditSink(innerSink) {
		t.Fatal("rebinding the clone's subquery sink mutated the template")
	}
}

// TestCarryColumnOnClone: the carried column shows up as a trailing
// output of every Project on the path, at the ordinal returned, and
// the template the clone was taken from — which shares its expression
// slices — is left as it was.
func TestCarryColumnOnClone(t *testing.T) {
	scan := &Scan{Table: "patients", Out: Schema{{Name: "id"}, {Name: "name"}, {Name: "age"}}}
	// SELECT name FROM patients ORDER BY age LIMIT 2: the sort key is a
	// hidden column the upper projection strips. Spare capacity in the
	// slices is what an append in place would scribble into.
	lower := &Project{Child: scan,
		Exprs: append(make([]Expr, 0, 4), &Col{Idx: 1}, &Col{Idx: 2}),
		Out:   append(make(Schema, 0, 4), ColInfo{Name: "name"}, ColInfo{Name: "$sort0"})}
	upper := &Project{Child: &Sort{Child: lower, Keys: []SortKey{{Expr: &Col{Idx: 1}}}},
		Exprs: append(make([]Expr, 0, 4), &Col{Idx: 0}),
		Out:   append(make(Schema, 0, 4), ColInfo{Name: "name"})}
	tmpl := &Limit{Child: upper, N: 2}

	c := CloneNode(tmpl).(*Limit)
	cscan := c.Child.(*Project).Child.(*Sort).Child.(*Project).Child
	idx, ok := CarryColumn(c, cscan, 0)
	if !ok || idx != 1 {
		t.Fatalf("CarryColumn = %d, %v; want 1, true", idx, ok)
	}
	if got := c.Schema(); len(got) != 2 || got[1].Name != "id" {
		t.Fatalf("clone's root schema = %v, want name, id", got)
	}
	cl := c.Child.(*Project).Child.(*Sort).Child.(*Project)
	if col, isCol := cl.Exprs[2].(*Col); !isCol || col.Idx != 0 || len(cl.Exprs) != 3 {
		t.Fatalf("lower projection = %v, want the key appended third", cl.Exprs)
	}
	if cu := c.Child.(*Project); cu.Exprs[1].(*Col).Idx != 2 {
		t.Fatalf("upper projection reads #%d for the key, want #2", cu.Exprs[1].(*Col).Idx)
	}
	if len(lower.Exprs) != 2 || len(lower.Out) != 2 || len(upper.Exprs) != 1 || len(upper.Out) != 1 {
		t.Fatal("carrying a column on the clone changed the template's projections")
	}
	if spare := lower.Exprs[:3][2]; spare != nil {
		t.Fatal("carried column was appended into the template's backing array")
	}

	// Anything but Project, Sort and Limit on the path: refused, and
	// nothing rewritten.
	blocked := &Project{Child: &Distinct{Child: scan}, Exprs: []Expr{&Col{Idx: 1}}, Out: Schema{{Name: "name"}}}
	if _, ok := CarryColumn(blocked, scan, 0); ok || len(blocked.Exprs) != 1 {
		t.Fatal("CarryColumn crossed a Distinct")
	}
}
