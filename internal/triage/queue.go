// Package triage sits between the trigger-firing path and the signed
// verdict: every firing already hash-chained into the WAL audit stream
// is also enqueued into a bounded priority queue, and a pool of
// background workers drains the queue and writes a signed verdict
// record back into the same hash chain. The worker's callback decides
// the verdict — from the firing itself when its accessed IDs are
// exact, by an offline replay (Def 2.3) otherwise. The queue serves
// the highest declared PRIORITY first, oldest first within a priority;
// overflow evicts the lowest-priority, newest event and every drop is
// counted, so enqueued = verdicts + dropped + failed + pending always
// holds.
package triage

import "sort"

// Event is one trigger firing awaiting verification. It is passed and
// stored by value so the enqueue hot path does not allocate; the
// strings alias state the firing already produced.
type Event struct {
	AuditSeq uint64 // chain seq of the RecAudit record for this firing
	QID      uint64 // trace query ID of the firing statement
	User     string // session user at firing time
	Expr     string // audit expression name
	SQL      string // statement text a replay re-runs
	NumIDs   int    // accessed-ID count the trigger reported
	Priority int    // declared PRIORITY of the audit expression: the queue key
	// Exact marks a firing whose accessed IDs are the Definition 2.3
	// answer as of its own read, so its verdict needs no replay.
	Exact bool

	// Order is the admission sequence the queue assigned; ties in
	// Priority resolve on it (oldest first out, newest first evicted).
	Order uint64
}

// before reports whether a is served before b: higher priority first,
// then older admission.
func before(a, b *Event) bool {
	return a.Priority > b.Priority || (a.Priority == b.Priority && a.Order < b.Order)
}

// queue is a bounded max-priority queue over Event.Priority with a
// deterministic overflow policy. All methods require the service
// mutex; the backing array is allocated once at the bound so steady
// state admission never allocates.
type queue struct {
	items []Event
	bound int
}

func newQueue(bound int) *queue {
	if bound < 1 {
		bound = 1
	}
	return &queue{items: make([]Event, 0, bound), bound: bound}
}

func (q *queue) len() int { return len(q.items) }

// push admits ev, evicting the resident served last — lowest
// priority, newest admission — when full, so at equal priority the
// oldest evidence survives. The second return is true when an event
// (resident or the incoming one) was dropped.
func (q *queue) push(ev Event) (dropped Event, wasDropped bool) {
	if len(q.items) < q.bound {
		q.items = append(q.items, ev)
		return Event{}, false
	}
	v := 0
	for i := 1; i < len(q.items); i++ {
		if before(&q.items[v], &q.items[i]) {
			v = i
		}
	}
	vic := &q.items[v]
	// The incoming event holds the largest Order, so on a priority tie
	// with the victim it is the one that drops.
	if !before(&ev, vic) {
		return ev, true
	}
	dropped = *vic
	*vic = ev
	return dropped, true
}

// popMax removes and returns the event served first.
func (q *queue) popMax() (Event, bool) {
	if len(q.items) == 0 {
		return Event{}, false
	}
	b := 0
	for i := 1; i < len(q.items); i++ {
		if before(&q.items[i], &q.items[b]) {
			b = i
		}
	}
	ev := q.items[b]
	last := len(q.items) - 1
	q.items[b] = q.items[last]
	q.items = q.items[:last]
	return ev, true
}

// snapshot copies the resident events in service order — the order
// sys.audit_queue reports.
func (q *queue) snapshot() []Event {
	out := make([]Event, len(q.items))
	copy(out, q.items)
	sort.Slice(out, func(i, j int) bool { return before(&out[i], &out[j]) })
	return out
}
