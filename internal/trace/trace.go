// Package trace is the engine's dependency-free query tracing layer.
//
// Every top-level statement gets a 64-bit query ID and an always-on
// cheap record: wall-clock per execution phase, held in a fixed array
// so the unsampled path allocates nothing. Statements selected for
// full capture — head sampling, SET trace = on, or tail-based
// retention of slow/error statements — additionally record a span
// tree covering transport read, normalize/parse, plan-cache lookup,
// per-operator execution with worker attribution, every audit-trigger
// firing, and WAL commit. Finished traces land in a bounded Ring and
// are correlated with the hash-chained audit stream by query ID.
//
// A Rec belongs to one session's statement goroutine; it is not safe
// for concurrent use. Parallel workers never touch the Rec — worker
// spans are synthesized after the exchange closes, from stats the
// executor folded under its own lock (the Probe.Fork/Merge discipline).
package trace

import "time"

// Phase indexes the always-on per-phase wall-clock array. Phases are
// stage clocks, not a partition: WAL time spent inside the audit
// cascade counts toward both PhaseAudit and PhaseWAL.
type Phase uint8

const (
	PhaseTransport Phase = iota // request decode on the server connection
	PhaseNormalize              // literal auto-parameterization scan
	PhaseParse                  // SQL text -> AST
	PhasePlan                   // plan-cache lookup / build + optimize
	PhaseExec                   // operator tree execution
	PhaseAudit                  // SELECT-trigger cascade (bodies included)
	PhaseWAL                    // WAL submit -> group commit -> fsync ack
	NumPhases
)

var phaseNames = [NumPhases]string{
	"transport", "normalize", "parse", "plan", "execute", "audit", "wal",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Attr is one span attribute. Str wins when non-empty; otherwise the
// attribute is numeric.
type Attr struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Int int64  `json:"int,omitempty"`
}

// Span is one node of a trace's span tree. The tree is stored flat:
// Parent is the index of the enclosing span in Trace.Spans, -1 for the
// root. Start and Dur are nanoseconds relative to the trace start;
// work that happened before the statement reached the engine (transport
// read, normalize) renders at offset 0.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Trace is one finished statement's record as retained in the Ring.
// Sampled traces carry the full span tree; tail-retained slow/error
// traces synthesize a coarse tree from the phase clocks.
type Trace struct {
	QID     uint64           `json:"qid"`
	User    string           `json:"user,omitempty"`
	SQL     string           `json:"sql,omitempty"`
	Start   time.Time        `json:"start"`
	Elapsed int64            `json:"elapsed_ns"`
	Sampled bool             `json:"sampled"`
	Err     string           `json:"error,omitempty"`
	Phases  map[string]int64 `json:"phases,omitempty"`
	Spans   []Span           `json:"spans"`
}

// Rec records one statement at a time and is reused across statements:
// Begin resets it, Finish closes it. When the statement is not sampled
// every method is a field update on preallocated storage — zero
// allocations (gated by TestRecUnsampledZeroAlloc, and end to end by
// TestWarmExecAllocBudget in internal/engine).
type Rec struct {
	active  bool
	sampled bool
	qid     uint64
	start   time.Time
	phases  [NumPhases]int64
	spans   []Span
	stack   []int // open span IDs; parent of the next span is the top
}

// Begin starts recording a statement. When sampled, a root span named
// "statement" (ID 0) is opened; it closes automatically at Finish.
func (r *Rec) Begin(qid uint64, sampled bool) {
	r.active, r.sampled, r.qid = true, sampled, qid
	r.start = time.Now()
	for i := range r.phases {
		r.phases[i] = 0
	}
	r.spans = r.spans[:0]
	r.stack = r.stack[:0]
	if sampled {
		r.spans = append(r.spans, Span{ID: 0, Parent: -1, Name: "statement"})
		r.stack = append(r.stack, 0)
	}
}

// Active reports whether a statement is being recorded. Nested
// statement entry points (trigger bodies, IF branches) check it to
// stay inside the enclosing statement's record.
func (r *Rec) Active() bool { return r.active }

// Sampling reports whether the active statement records full spans.
func (r *Rec) Sampling() bool { return r.active && r.sampled }

// QID returns the active statement's query ID, 0 when idle.
func (r *Rec) QID() uint64 {
	if !r.active {
		return 0
	}
	return r.qid
}

// Start returns the trace start time.
func (r *Rec) Start() time.Time { return r.start }

// Elapsed returns the wall-clock since Begin.
func (r *Rec) Elapsed() time.Duration { return time.Since(r.start) }

// AddPhase charges d to phase p. Always-on; allocation-free.
func (r *Rec) AddPhase(p Phase, d time.Duration) {
	if r.active && p < NumPhases {
		r.phases[p] += int64(d)
	}
}

// Phase returns the time charged to p so far.
func (r *Rec) Phase(p Phase) time.Duration {
	if p < NumPhases {
		return time.Duration(r.phases[p])
	}
	return 0
}

// Current returns the innermost open span's ID (the root, 0, when only
// it is open). Meaningless unless Sampling.
func (r *Rec) Current() int {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return 0
}

// StartSpan opens a span as a child of the innermost open span and
// makes it current. Returns -1 (a no-op handle) when not sampling.
func (r *Rec) StartSpan(name string) int {
	if !r.Sampling() {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		ID:     id,
		Parent: r.Current(),
		Name:   name,
		Start:  int64(time.Since(r.start)),
	})
	r.stack = append(r.stack, id)
	return id
}

// EndSpan closes the span returned by StartSpan, popping any spans
// left open inside it (defensive against unbalanced nesting on error
// paths).
func (r *Rec) EndSpan(id int) {
	if id < 0 || !r.Sampling() || id >= len(r.spans) {
		return
	}
	sp := &r.spans[id]
	sp.Dur = int64(time.Since(r.start)) - sp.Start
	for n := len(r.stack); n > 0; n-- {
		top := r.stack[n-1]
		r.stack = r.stack[:n-1]
		if top == id {
			break
		}
	}
}

// AddSpan records an already-completed span under parent (pass
// Current() for the innermost open span). start times before the trace
// began clamp to offset 0. Returns -1 when not sampling.
func (r *Rec) AddSpan(parent int, name string, start time.Time, d time.Duration) int {
	if !r.Sampling() {
		return -1
	}
	if parent < 0 || parent >= len(r.spans) {
		parent = r.Current()
	}
	off := int64(start.Sub(r.start))
	if off < 0 {
		off = 0
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  off,
		Dur:    int64(d),
	})
	return id
}

// SetAttr attaches a string attribute to a span handle; no-op on -1.
func (r *Rec) SetAttr(id int, key, val string) {
	if id < 0 || id >= len(r.spans) || !r.Sampling() {
		return
	}
	r.spans[id].Attrs = append(r.spans[id].Attrs, Attr{Key: key, Str: val})
}

// SetAttrInt attaches a numeric attribute to a span handle.
func (r *Rec) SetAttrInt(id int, key string, n int64) {
	if id < 0 || id >= len(r.spans) || !r.Sampling() {
		return
	}
	r.spans[id].Attrs = append(r.spans[id].Attrs, Attr{Key: key, Int: n})
}

// SetAttrs sets a span's attributes wholesale, replacing any, so a
// caller recording many spans can carve their attributes out of one
// allocation.
func (r *Rec) SetAttrs(id int, attrs []Attr) {
	if id < 0 || id >= len(r.spans) || !r.Sampling() {
		return
	}
	r.spans[id].Attrs = attrs
}

// Finish closes the recorder. With retain=false it only clears the
// active flag — no allocation, the unsampled fast path. With
// retain=true it builds the Trace to keep: sampled statements get a
// copy of the recorded span tree; unsampled ones (tail capture of
// slow/error statements) get a coarse tree synthesized from the phase
// clocks so even an untraced slow query leaves a reconstructable
// record.
func (r *Rec) Finish(user, sql, errMsg string, retain bool) *Trace {
	if !r.active {
		return nil
	}
	elapsed := int64(time.Since(r.start))
	r.active = false
	if !retain {
		return nil
	}
	t := &Trace{
		QID:     r.qid,
		User:    user,
		SQL:     sql,
		Start:   r.start,
		Elapsed: elapsed,
		Sampled: r.sampled,
		Err:     errMsg,
	}
	t.Phases = make(map[string]int64, NumPhases)
	for i, v := range r.phases {
		if v > 0 {
			t.Phases[Phase(i).String()] = v
		}
	}
	if r.sampled {
		if len(r.spans) > 0 {
			r.spans[0].Dur = elapsed
		}
		t.Spans = append([]Span(nil), r.spans...)
		return t
	}
	t.Spans = append(t.Spans, Span{ID: 0, Parent: -1, Name: "statement", Dur: elapsed})
	off := int64(0)
	for i, v := range r.phases {
		if v == 0 {
			continue
		}
		t.Spans = append(t.Spans, Span{
			ID:     len(t.Spans),
			Parent: 0,
			Name:   Phase(i).String(),
			Start:  off,
			Dur:    v,
		})
		off += v
	}
	return t
}
