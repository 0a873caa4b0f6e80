package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Ring is the bounded retention buffer for finished traces. Newer
// traces overwrite the oldest once the ring is full; Add reports the
// overwrite so the owner can count evictions (the trace package keeps
// no metrics of its own — it stays dependency-free).
type Ring struct {
	mu  sync.Mutex
	buf []*Trace
	pos int // next write slot
	n   int
}

// NewRing creates a ring retaining up to capacity traces (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]*Trace, capacity)}
}

// Add retains t, reporting whether an older trace was evicted.
func (g *Ring) Add(t *Trace) (evicted bool) {
	if t == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	evicted = g.buf[g.pos] != nil
	g.buf[g.pos] = t
	g.pos = (g.pos + 1) % len(g.buf)
	if g.n < len(g.buf) {
		g.n++
	}
	return evicted
}

// Get returns the oldest retained trace for qid, or nil. A statement
// and its later triage.verify trace share a qid; the statement's own
// is the older one.
func (g *Ring) Get(qid uint64) *Trace {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.buf {
		t := g.buf[(g.pos+i)%len(g.buf)] // from pos: oldest to newest
		if t != nil && t.QID == qid {
			return t
		}
	}
	return nil
}

// Snapshot returns the retained traces, newest first.
func (g *Ring) Snapshot() []*Trace {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Trace, 0, g.n)
	for i := 1; i <= len(g.buf); i++ {
		// Walk backwards from the slot before pos: newest to oldest.
		t := g.buf[(g.pos-i+len(g.buf))%len(g.buf)]
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Len reports how many traces are currently retained.
func (g *Ring) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Handler serves the ring as JSON: the full retained list (newest
// first) at the mount path, or a single trace with ?qid=<id>. Daemons
// mount it at /traces on the metrics listener.
func (g *Ring) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if q := req.URL.Query().Get("qid"); q != "" {
			qid, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, `{"error":"bad qid"}`, http.StatusBadRequest)
				return
			}
			t := g.Get(qid)
			if t == nil {
				http.Error(w, `{"error":"trace not found"}`, http.StatusNotFound)
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(t)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(g.Snapshot())
	})
}
