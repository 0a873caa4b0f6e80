package core

import (
	"slices"
	"testing"

	"auditdb/internal/value"
)

// refSet is idSet's specification: a map keyed by value.EncodeKey that
// keeps the first value added under each key, listed in compareIDs
// order.
type refSet map[string]value.Value

func (r refSet) add(v value.Value) {
	if _, ok := r[value.KeyOf(v)]; !ok {
		r[value.KeyOf(v)] = v
	}
}

func (r refSet) sorted() []value.Value {
	out := make([]value.Value, 0, len(r))
	for _, v := range r {
		out = append(out, v)
	}
	slices.SortFunc(out, compareIDs)
	return out
}

// idUniverse covers every kind an ID can have, with values whose keys
// collide across kinds (5, 5.0, DATE 5; TRUE and 1) and values that
// only look alike (5.5, '5').
var idUniverse = []value.Value{
	value.NewInt(5), value.NewFloat(5), value.NewDate(5),
	value.NewBool(true), value.NewInt(1), value.NewBool(false), value.NewInt(0),
	value.NewFloat(5.5), value.NewFloat(-0.25), value.NewString("5"), value.NewString("x"),
	value.NewInt(-3), value.NewDate(7), value.NewFloat(7), value.NewInt(1 << 40),
}

type idOp struct {
	remove bool
	v      value.Value
}

func adds(vs ...value.Value) []idOp {
	ops := make([]idOp, len(vs))
	for i, v := range vs {
		ops[i] = idOp{v: v}
	}
	return ops
}

var idSetCases = []struct {
	name string
	ops  []idOp
}{
	{"ints", append(adds(value.NewInt(5), value.NewInt(1), value.NewInt(-3), value.NewInt(5)),
		idOp{true, value.NewInt(1)})},
	{"date then int", append(adds(value.NewDate(5), value.NewInt(5), value.NewDate(7)),
		idOp{true, value.NewFloat(5)})},
	{"int then float and date", append(adds(value.NewInt(5), value.NewFloat(5), value.NewDate(5), value.NewFloat(7)),
		idOp{true, value.NewDate(7)})},
	{"bools", adds(value.NewBool(true), value.NewInt(1), value.NewBool(false), value.NewInt(0))},
	{"fractional floats", append(adds(value.NewFloat(5.5), value.NewFloat(-0.25), value.NewInt(5)),
		idOp{true, value.NewFloat(5.5)})},
	{"strings", append(adds(value.NewString("x"), value.NewString("5"), value.NewString("x")),
		idOp{true, value.NewString("y")}, idOp{true, value.NewString("x")})},
	{"mixed", append(adds(idUniverse...),
		idOp{true, value.NewFloat(5)}, idOp{true, value.NewBool(true)}, idOp{true, value.NewString("5")},
		idOp{v: value.NewDate(5)})},
	{"remove absent", append(adds(value.NewInt(2)), idOp{true, value.NewInt(3)}, idOp{true, value.NewString("2")})},
}

func build(ops []idOp) (idSet, refSet) {
	var s idSet
	ref := refSet{}
	for _, op := range ops {
		if op.remove {
			s.remove(op.v)
			delete(ref, value.KeyOf(op.v))
		} else {
			s.add(op.v)
			ref.add(op.v)
		}
	}
	return s, ref
}

// agree checks s against ref: membership of every universe value under
// key equality, size, and the sorted listing, kinds included.
func agree(t *testing.T, s *idSet, ref refSet) {
	t.Helper()
	for _, v := range idUniverse {
		_, want := ref[value.KeyOf(v)]
		if got := s.has(v); got != want {
			t.Errorf("has(%v %v) = %v, want %v", v.Kind, v, got, want)
		}
	}
	if s.len() != len(ref) {
		t.Errorf("len = %d, want %d", s.len(), len(ref))
	}
	got, want := s.sorted(), ref.sorted()
	if len(got) != len(want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || value.Compare(got[i], want[i]) != 0 {
			t.Errorf("sorted = %v, want %v", got, want)
			break
		}
	}
}

// TestIDSetMatchesKeyMap: add, remove and has across kinds, union and
// the sorted listing behave as a map keyed by value.EncodeKey.
func TestIDSetMatchesKeyMap(t *testing.T) {
	for _, c := range idSetCases {
		t.Run(c.name, func(t *testing.T) {
			s, ref := build(c.ops)
			agree(t, &s, ref)

			c2 := s.clone()
			c2.add(value.NewString("clone only"))
			agree(t, &s, ref)
		})
	}
	for _, a := range idSetCases {
		for _, b := range idSetCases {
			t.Run(a.name+" ∪ "+b.name, func(t *testing.T) {
				sa, ra := build(a.ops)
				sb, rb := build(b.ops)
				sa.union(&sb)
				for _, v := range rb {
					ra.add(v)
				}
				agree(t, &sa, ra)
			})
		}
	}
}

// TestWatchSetAscending: the sorted int lane RefuteChunk searches.
func TestWatchSetAscending(t *testing.T) {
	w := &watchSet{}
	for _, i := range []int64{9, -4, 3, 1 << 40, 0} {
		w.add(value.NewInt(i))
	}
	if got, want := w.ascending(), []int64{-4, 0, 3, 9, 1 << 40}; !slices.Equal(got, want) {
		t.Errorf("ascending = %v, want %v", got, want)
	}
}
