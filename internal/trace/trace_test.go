package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func attrStr(sp Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

func TestRecSpanNesting(t *testing.T) {
	var r Rec
	r.Begin(7, true)
	if !r.Active() || !r.Sampling() || r.QID() != 7 {
		t.Fatalf("after Begin: active=%t sampling=%t qid=%d", r.Active(), r.Sampling(), r.QID())
	}

	a := r.StartSpan("outer")
	b := r.StartSpan("inner")
	r.SetAttr(b, "kind", "leaf")
	r.EndSpan(b)
	c := r.AddSpan(r.Current(), "done", time.Now(), time.Millisecond)
	r.SetAttrInt(c, "rows", 5)
	r.EndSpan(a)

	tr := r.Finish("alice", "SELECT 1", "", true)
	if tr == nil {
		t.Fatal("Finish(retain=true) returned nil")
	}
	if tr.QID != 7 || tr.User != "alice" || tr.SQL != "SELECT 1" || !tr.Sampled {
		t.Fatalf("trace header = %+v", tr)
	}
	// statement(0) -> outer(1) -> {inner(2), done(3)}
	if len(tr.Spans) != 4 {
		t.Fatalf("spans = %+v, want 4", tr.Spans)
	}
	if tr.Spans[0].Name != "statement" || tr.Spans[0].Parent != -1 {
		t.Fatalf("root = %+v", tr.Spans[0])
	}
	if tr.Spans[1].Name != "outer" || tr.Spans[1].Parent != 0 {
		t.Fatalf("outer = %+v", tr.Spans[1])
	}
	if tr.Spans[2].Name != "inner" || tr.Spans[2].Parent != 1 {
		t.Fatalf("inner = %+v", tr.Spans[2])
	}
	if tr.Spans[3].Name != "done" || tr.Spans[3].Parent != 1 {
		t.Fatalf("done = %+v", tr.Spans[3])
	}
	if got := attrStr(tr.Spans[2], "kind"); got != "leaf" {
		t.Fatalf("inner attrs = %+v", tr.Spans[2].Attrs)
	}
	if tr.Spans[0].Dur != tr.Elapsed {
		t.Fatalf("root dur %d != elapsed %d", tr.Spans[0].Dur, tr.Elapsed)
	}
	if r.Active() {
		t.Fatal("recorder still active after Finish")
	}
	if r.Finish("", "", "", true) != nil {
		t.Fatal("Finish on idle recorder must return nil")
	}
}

// TestRecUnbalancedEndSpan: EndSpan on an outer handle pops spans left
// open inside it, so error paths can bail without unwinding manually.
func TestRecUnbalancedEndSpan(t *testing.T) {
	var r Rec
	r.Begin(1, true)
	a := r.StartSpan("outer")
	r.StartSpan("leaked")
	r.EndSpan(a)
	if cur := r.Current(); cur != 0 {
		t.Fatalf("current = %d after closing outer, want root 0", cur)
	}
	r.EndSpan(-1) // no-op handle from an unsampled StartSpan
	tr := r.Finish("", "", "", true)
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %+v", tr.Spans)
	}
}

// TestRecUnsampledZeroAlloc is the recorder half of the PR's zero-cost
// guarantee: a full Begin/phase/span/Finish cycle with sampling off and
// no retention must not allocate (the engine-level gate is
// TestWarmExecAllocBudget in internal/engine).
func TestRecUnsampledZeroAlloc(t *testing.T) {
	var r Rec
	allocs := testing.AllocsPerRun(1000, func() {
		r.Begin(42, false)
		r.AddPhase(PhaseParse, time.Microsecond)
		r.AddPhase(PhaseExec, time.Millisecond)
		id := r.StartSpan("execute")
		r.SetAttrInt(id, "rows", 1)
		r.EndSpan(id)
		if r.Finish("", "", "", false) != nil {
			t.Fatal("unretained Finish must return nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled trace cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestRecTailSynthesis: an unsampled statement retained by tail capture
// (slow or errored) gets a coarse span tree built from the phase
// clocks.
func TestRecTailSynthesis(t *testing.T) {
	var r Rec
	r.Begin(5, false)
	r.AddPhase(PhaseParse, 2*time.Millisecond)
	r.AddPhase(PhaseExec, 8*time.Millisecond)
	if id := r.StartSpan("ignored"); id != -1 {
		t.Fatalf("StartSpan while unsampled = %d, want -1", id)
	}
	tr := r.Finish("bob", "SELECT slow", "boom", true)
	if tr == nil || tr.Sampled {
		t.Fatalf("trace = %+v, want retained unsampled", tr)
	}
	if tr.Err != "boom" || tr.User != "bob" {
		t.Fatalf("trace header = %+v", tr)
	}
	if tr.Phases["parse"] != int64(2*time.Millisecond) || tr.Phases["execute"] != int64(8*time.Millisecond) {
		t.Fatalf("phases = %v", tr.Phases)
	}
	// statement root + one span per non-zero phase.
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %+v, want root+parse+execute", tr.Spans)
	}
	names := []string{tr.Spans[1].Name, tr.Spans[2].Name}
	if names[0] != "parse" || names[1] != "execute" {
		t.Fatalf("synthesized spans = %v", names)
	}
	for _, sp := range tr.Spans[1:] {
		if sp.Parent != 0 {
			t.Fatalf("synthesized span %+v not parented to root", sp)
		}
	}
}

func mkTrace(qid uint64) *Trace {
	return &Trace{QID: qid, Sampled: true, Spans: []Span{{ID: 0, Parent: -1, Name: "statement"}}}
}

func TestRingEviction(t *testing.T) {
	g := NewRing(2)
	if g.Add(nil) {
		t.Fatal("Add(nil) must not evict")
	}
	if g.Add(mkTrace(1)) || g.Add(mkTrace(2)) {
		t.Fatal("filling an empty ring must not evict")
	}
	if !g.Add(mkTrace(3)) {
		t.Fatal("overwriting the oldest slot must report eviction")
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if g.Get(1) != nil {
		t.Fatal("evicted trace 1 still retrievable")
	}
	if g.Get(3) == nil || g.Get(2) == nil {
		t.Fatal("retained traces not retrievable")
	}
	snap := g.Snapshot()
	if len(snap) != 2 || snap[0].QID != 3 || snap[1].QID != 2 {
		t.Fatalf("snapshot order = %v, want newest first [3 2]", snap)
	}
}

// TestRingGetOldestForQID: two retained traces share a qid (a statement
// and its triage.verify trace); Get returns the older, whichever slot
// the ring's wrap put it in.
func TestRingGetOldestForQID(t *testing.T) {
	g := NewRing(3)
	stmt := mkTrace(1)
	for _, tr := range []*Trace{mkTrace(9), stmt, mkTrace(8), mkTrace(1)} {
		g.Add(tr) // the fourth evicts qid 9 from slot 0
	}
	if got := g.Get(1); got != stmt {
		t.Fatalf("Get(1) = %p, want the statement's trace %p (the older of the two)", got, stmt)
	}
}

func TestRingHandler(t *testing.T) {
	g := NewRing(4)
	g.Add(mkTrace(1))
	g.Add(mkTrace(2))
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var list []Trace
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].QID != 2 {
		t.Fatalf("list = %+v, want 2 traces newest first", list)
	}

	resp, err = http.Get(srv.URL + "?qid=1")
	if err != nil {
		t.Fatal(err)
	}
	var one Trace
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.QID != 1 {
		t.Fatalf("single trace = %+v", one)
	}

	for query, status := range map[string]int{"?qid=99": http.StatusNotFound, "?qid=abc": http.StatusBadRequest} {
		resp, err = http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", query, resp.StatusCode, status)
		}
	}
}

func TestRender(t *testing.T) {
	tr := &Trace{
		QID: 9, User: "alice", Elapsed: int64(3 * time.Millisecond), Sampled: true,
		Err: `bad "thing"`,
		Spans: []Span{
			{ID: 0, Parent: -1, Name: "statement", Dur: int64(3 * time.Millisecond)},
			{ID: 1, Parent: 0, Name: "execute", Dur: int64(2 * time.Millisecond),
				Attrs: []Attr{{Key: "rows", Int: 5}}},
			{ID: 2, Parent: 1, Name: "worker", Dur: int64(time.Millisecond)},
		},
	}
	lines := tr.Render()
	if len(lines) != 4 {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.Contains(lines[0], "qid=9") || !strings.Contains(lines[0], `error="bad \"thing\""`) {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "statement") {
		t.Fatalf("root line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "  execute") || !strings.Contains(lines[2], "rows=5") {
		t.Fatalf("operator line = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "    worker") {
		t.Fatalf("worker line = %q", lines[3])
	}
}
