package main

import (
	"testing"

	"auditdb/internal/tpch"
)

// One seed must give a byte-identical statement stream twice, and a
// second seed a different one — for every workload's generator. The
// deck streams (scan_analytic, offline_verify) are checked on stand-in
// operations: their real ones need a loaded engine, which the smoke
// test covers.
func TestStreamsReproducible(t *testing.T) {
	d := tpch.Generate(tpch.Config{SF: 0.002})
	hot := hotTemplates()
	tail := make([]*template, tailShapes)
	for i := range tail {
		tail[i] = tailTemplate(i)
	}
	n := int64(len(d.Customer))
	stand := []op{{sql: "a"}, {sql: "b"}, {sql: "c"}, {sql: "d"}, {sql: "e"}}
	makers := map[string]func(seed int64) []stream{
		"point_embedded": func(seed int64) []stream {
			m := newModel(d, n/10)
			return []stream{
				&pointStream{rng: clientRNG(seed, 0), m: m, hot: hot, tail: tail, tailShare: 0.05, lo: 1, hi: n, sensHi: n / 10},
				&pointStream{rng: clientRNG(seed, 1), m: m, hot: hot, tail: tail, tailShare: 0.05, lo: 1, hi: n, sensHi: n / 10},
			}
		},
		"point_wire": func(seed int64) []stream {
			return []stream{&pointStream{rng: clientRNG(seed, 0), m: newModel(d, n/10), hot: hot, lo: 1, hi: n, sensHi: n / 10}}
		},
		"mixed_durable": func(seed int64) []stream {
			return []stream{&mixedStream{
				pointStream: pointStream{rng: clientRNG(seed, 0), m: newModel(d, 0), hot: hot, lo: 1, hi: n},
				nextOrder:   mixedInsertBase, updates: true,
			}}
		},
		"scan_analytic, offline_verify": func(seed int64) []stream {
			return []stream{&deckStream{rng: clientRNG(seed, 0), ops: stand}}
		},
	}
	for name, mk := range makers {
		a, b, c := streamHash(mk(1)), streamHash(mk(1)), streamHash(mk(2))
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams: %s vs %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", name, a)
		}
	}
}

// The long tail must really be tailShapes distinct shapes, or it would
// fit the caches it is sized to overflow.
func TestTailShapesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < tailShapes; i++ {
		seen[tailTemplate(i).pg] = true
	}
	if len(seen) != tailShapes {
		t.Fatalf("%d distinct tail shapes, want %d", len(seen), tailShapes)
	}
}

func TestTemplateRender(t *testing.T) {
	tm := newTemplate(9, "SELECT a FROM t WHERE k = $1 AND j = $1 AND x > $2", false, nil)
	got := string(tm.render(nil, [2]int64{42, -7}))
	if want := "SELECT a FROM t WHERE k = 42 AND j = 42 AND x > -7"; got != want || tm.nargs != 2 {
		t.Errorf("got %q nargs=%d", got, tm.nargs)
	}
}

// A deck deals every card once per cycle, whatever the seed.
func TestDeckDealsEveryCardOncePerCycle(t *testing.T) {
	ops := []op{{sql: "a"}, {sql: "b"}, {sql: "c"}, {sql: "d"}, {sql: "e"}}
	s := &deckStream{rng: clientRNG(3, 0), ops: ops}
	var o op
	for cycle := 0; cycle < 4; cycle++ {
		seen := map[string]int{}
		for i := 0; i < len(ops); i++ {
			s.next(&o)
			seen[o.sql]++
		}
		if len(seen) != len(ops) {
			t.Fatalf("cycle %d visited %v", cycle, seen)
		}
	}
}
