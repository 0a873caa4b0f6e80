package triage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func ev(priority int, order uint64) Event {
	return Event{Priority: priority, Order: order, Expr: fmt.Sprintf("e%d", order)}
}

func TestQueueEvictsLowestScore(t *testing.T) {
	q := newQueue(3)
	for i, p := range []int{5, 1, 3} {
		q.push(ev(p, uint64(i+1)))
	}
	dropped, was := q.push(ev(4, 4))
	if !was || dropped.Priority != 1 {
		t.Fatalf("expected the priority-1 resident to drop, got %+v (dropped=%v)", dropped, was)
	}
	got, _ := q.popMax()
	if got.Priority != 5 {
		t.Fatalf("popMax = %v, want priority 5", got.Priority)
	}
}

func TestQueueRejectsIncomingAtOrBelowVictim(t *testing.T) {
	q := newQueue(2)
	q.push(ev(5, 1))
	q.push(ev(3, 2))
	// Equal to the victim's priority: incoming is newest, so it drops.
	dropped, was := q.push(ev(3, 3))
	if !was || dropped.Order != 3 {
		t.Fatalf("expected the incoming order-3 event to drop, got %+v", dropped)
	}
	// Strictly below: also drops.
	dropped, was = q.push(ev(2, 4))
	if !was || dropped.Order != 4 {
		t.Fatalf("expected the incoming order-4 event to drop, got %+v", dropped)
	}
	if q.len() != 2 {
		t.Fatalf("queue length = %d, want 2", q.len())
	}
}

func TestQueueTieEvictsNewest(t *testing.T) {
	q := newQueue(2)
	q.push(ev(3, 1))
	q.push(ev(3, 2))
	dropped, was := q.push(ev(4, 3))
	if !was || dropped.Order != 2 {
		t.Fatalf("on a priority tie the newest resident must drop; got order %d", dropped.Order)
	}
}

func TestPopMaxPrefersOldestOnTie(t *testing.T) {
	q := newQueue(4)
	q.push(ev(7, 1))
	q.push(ev(9, 2))
	q.push(ev(9, 3))
	first, _ := q.popMax()
	if first.Order != 2 {
		t.Fatalf("popMax tie must yield the oldest admission, got order %d", first.Order)
	}
	second, _ := q.popMax()
	if second.Order != 3 {
		t.Fatalf("second popMax got order %d, want 3", second.Order)
	}
}

func TestSnapshotOrdering(t *testing.T) {
	q := newQueue(4)
	q.push(ev(1, 1))
	q.push(ev(9, 2))
	q.push(ev(9, 3))
	q.push(ev(4, 4))
	snap := q.snapshot()
	want := []uint64{2, 3, 4, 1}
	for i, o := range want {
		if snap[i].Order != o {
			t.Fatalf("snapshot[%d].Order = %d, want %d (full: %+v)", i, snap[i].Order, o, snap)
		}
	}
}

func TestServiceAccountingInvariant(t *testing.T) {
	var mu sync.Mutex
	verified := 0
	s := NewService(Config{Workers: 2, QueueBound: 4},
		func(ctx context.Context, ev Event) (Result, error) {
			mu.Lock()
			verified++
			mu.Unlock()
			return Result{Outcome: "refuted"}, nil
		}, nil)
	s.Start()
	for i := 0; i < 64; i++ {
		s.Enqueue(Event{Priority: i % 7, Expr: "x", SQL: "SELECT 1"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	st := s.Stats()
	if st.Enqueued != 64 {
		t.Fatalf("enqueued = %d, want 64", st.Enqueued)
	}
	if st.Enqueued != st.Verdicts+st.Dropped+st.Failed+uint64(st.Pending) {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	s.Stop(ctx)
}

func TestServiceFailedVerifyCountsFailed(t *testing.T) {
	s := NewService(Config{Workers: 1},
		func(ctx context.Context, ev Event) (Result, error) {
			return Result{}, errors.New("boom")
		}, nil)
	s.Start()
	s.Enqueue(Event{Priority: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	st := s.Stats()
	if st.Failed != 1 || st.Verdicts != 0 {
		t.Fatalf("stats after failing verify: %+v", st)
	}
	s.Stop(ctx)
}

func TestStopCancelsInFlightAudit(t *testing.T) {
	started := make(chan struct{})
	s := NewService(Config{Workers: 1},
		func(ctx context.Context, ev Event) (Result, error) {
			close(started)
			<-ctx.Done() // a long offline scan observing cancellation
			return Result{}, ctx.Err()
		}, nil)
	s.Start()
	s.Enqueue(Event{Priority: 1})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { s.Stop(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the in-flight audit")
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("cancelled audit must count failed: %+v", st)
	}
}

func TestEnqueueAfterStopIsIgnored(t *testing.T) {
	s := NewService(Config{Workers: 1},
		func(ctx context.Context, ev Event) (Result, error) {
			return Result{Outcome: "refuted"}, nil
		}, nil)
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Stop(ctx)
	s.Enqueue(Event{Priority: 1})
	if st := s.Stats(); st.Enqueued != 0 {
		t.Fatalf("post-stop enqueue must be ignored: %+v", st)
	}
}

func TestDisabledServiceIsInert(t *testing.T) {
	var s *Service
	if s.Enabled() {
		t.Fatal("nil service must report disabled")
	}
	d := NewService(Config{}, nil, nil)
	if d.Enabled() {
		t.Fatal("zero-worker service must report disabled")
	}
	d.Start() // no-op
	d.Enqueue(Event{Priority: 1})
	if st := d.Stats(); st.Enqueued != 1 || st.Depth != 1 {
		t.Fatalf("disabled service still queues (engine default): %+v", st)
	}
}

// TestEnqueueDoesNotAllocate gates the trigger hot path: admission,
// eviction included, must be allocation-free.
func TestEnqueueDoesNotAllocate(t *testing.T) {
	s := NewService(Config{Workers: 0, QueueBound: 8}, nil, nil)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		s.Enqueue(Event{Priority: i % 4, User: "hotpath", Expr: "e", SQL: "SELECT 1", NumIDs: 1})
	})
	if allocs > 0 {
		t.Fatalf("enqueue allocates %.1f per op, want 0", allocs)
	}
}
