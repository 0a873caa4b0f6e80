package core

import (
	"cmp"
	"maps"
	"slices"

	"auditdb/internal/value"
)

// idSet is a set of partition-by IDs: an audit expression's
// materialized sensitiveIDs (§IV-A.1), one expression's ACCESSED record
// (§II), and a parallel worker's matches before they merge. Membership
// is value.EncodeKey equality, so INT 5, FLOAT 5.0, DATE 5 and TRUE are
// one ID. INT IDs — partition keys are primary keys, overwhelmingly
// integers — live in an int64 lane, so adding or probing one costs a
// single map operation and no encoded-key string; every other kind lives
// in a lane keyed by its encoding. An ID is held in one lane only. The
// zero value is an empty set.
type idSet struct {
	ints  map[int64]struct{}
	other map[string]value.Value
}

func (s *idSet) len() int { return len(s.ints) + len(s.other) }

// add inserts v unless a key-equal ID is already held.
func (s *idSet) add(v value.Value) {
	if v.Kind == value.KindInt {
		if len(s.other) > 0 && s.has(v) {
			return
		}
		if s.ints == nil {
			s.ints = make(map[int64]struct{})
		}
		s.ints[v.I] = struct{}{}
		return
	}
	if s.has(v) {
		return
	}
	if s.other == nil {
		s.other = make(map[string]value.Value)
	}
	s.other[value.KeyOf(v)] = v
}

// remove deletes the ID key-equal to v, from whichever lane holds it.
func (s *idSet) remove(v value.Value) {
	if i, ok := value.IntKey(v); ok {
		delete(s.ints, i)
	}
	if len(s.other) > 0 {
		delete(s.other, value.KeyOf(v))
	}
}

// has reports whether an ID key-equal to v is held. An INT probe of a
// set with an empty second lane, the hot path, is one int64 lookup.
func (s *idSet) has(v value.Value) bool {
	if v.Kind == value.KindInt && len(s.other) == 0 {
		_, ok := s.ints[v.I]
		return ok
	}
	if i, ok := value.IntKey(v); ok {
		if _, held := s.ints[i]; held {
			return true
		}
	}
	if len(s.other) == 0 {
		return false
	}
	var buf [24]byte
	_, ok := s.other[string(value.EncodeKey(buf[:0], v))]
	return ok
}

// union adds every ID of o.
func (s *idSet) union(o *idSet) {
	for i := range o.ints {
		s.add(value.NewInt(i))
	}
	for _, v := range o.other {
		s.add(v)
	}
}

func (s *idSet) clone() idSet {
	return idSet{ints: maps.Clone(s.ints), other: maps.Clone(s.other)}
}

// appendInts appends the int lane to dst in ascending order.
func (s *idSet) appendInts(dst []int64) []int64 {
	n := len(dst)
	for i := range s.ints {
		dst = append(dst, i)
	}
	slices.Sort(dst[n:])
	return dst
}

// sorted lists the IDs in compareIDs order, for deterministic
// consumption by trigger actions and tests.
func (s *idSet) sorted() []value.Value {
	out := make([]value.Value, 0, s.len())
	if len(s.other) == 0 {
		// Integer IDs only, the common case: sort them as int64s, the
		// order value.Compare gives, then box. A small set sorts on the
		// stack.
		var buf [64]int64
		for _, i := range s.appendInts(buf[:0]) {
			out = append(out, value.NewInt(i))
		}
		return out
	}
	for i := range s.ints {
		out = append(out, value.NewInt(i))
	}
	for _, v := range s.other {
		out = append(out, v)
	}
	slices.SortFunc(out, compareIDs)
	return out
}

// compareIDs orders IDs by value.Compare within the groups it orders
// totally — numbers (INT, FLOAT, BOOL), DATEs, strings — and the groups
// in that sequence.
func compareIDs(a, b value.Value) int {
	return cmp.Or(cmp.Compare(idGroup(a.Kind), idGroup(b.Kind)), value.Compare(a, b))
}

func idGroup(k value.Kind) int {
	switch k {
	case value.KindInt, value.KindFloat, value.KindBool:
		return 0
	case value.KindDate:
		return 1
	}
	return 2
}
