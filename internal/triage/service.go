package triage

import (
	"context"
	"sync"
	"time"
)

// verdictRingSize bounds the in-memory tail of recent verdicts that
// sys.verdicts reports; the authoritative record is the hash-chained
// audit stream.
const verdictRingSize = 256

// Config sizes the service. Workers <= 0 disables background
// verification entirely: the engine constructs a disabled service by
// default and the daemon turns it on, so embedded engines pay nothing.
type Config struct {
	Workers    int // background verification goroutines
	QueueBound int // priority-queue capacity (default 256)
}

// Result is what a VerifyFunc produced for one event: the chain
// sequence of the verdict record it appended, the outcome name, and
// how many accessed IDs the verdict stands on.
type Result struct {
	ChainSeq   uint64
	Outcome    string // "confirmed", "refuted", "skipped"
	Suspicious int    // accessed IDs the verdict confirmed
}

// VerifyFunc decides ev's verdict and appends the signed verdict
// record. ctx is cancelled at drain/shutdown; an error means no verdict
// was written and the event is counted failed.
type VerifyFunc func(ctx context.Context, ev Event) (Result, error)

// VerdictRec is one recent verdict, held in a fixed ring for
// sys.verdicts.
type VerdictRec struct {
	ChainSeq     uint64
	AuditSeq     uint64
	Outcome      string
	Priority     int
	User         string
	Expr         string
	QID          uint64
	Suspicious   int
	ElapsedNanos int64
}

// Snapshot is a consistent snapshot of the service's accounting. The
// invariant Enqueued == Verdicts + Dropped + Failed + Pending holds at
// every instant (Pending counts resident and in-flight events).
type Snapshot struct {
	Enqueued uint64
	Dropped  uint64
	Verdicts uint64
	Failed   uint64
	Pending  int
	Depth    int
	Workers  int
}

// Service owns the bounded priority queue and the verification pool.
type Service struct {
	cfg     Config
	verify  VerifyFunc
	metrics *Metrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	q       *queue
	started bool
	stopped bool
	enqSeq  uint64

	enqueued uint64
	dropped  uint64
	verdicts uint64
	failed   uint64
	inflight int

	ring     []VerdictRec
	ringNext int
	ringLen  int
}

// NewService builds a service; Start launches the workers. metrics nil
// runs unobserved.
func NewService(cfg Config, verify VerifyFunc, m *Metrics) *Service {
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		verify:  verify,
		metrics: m,
		ctx:     ctx,
		cancel:  cancel,
		q:       newQueue(cfg.QueueBound),
		ring:    make([]VerdictRec, verdictRingSize),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enabled reports whether background verification workers exist.
func (s *Service) Enabled() bool { return s != nil && s.cfg.Workers > 0 }

// Config returns the sizing the service was built with.
func (s *Service) Config() Config { return s.cfg }

// Start launches the worker pool. Idempotent; a no-op when disabled.
func (s *Service) Start() {
	if !s.Enabled() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Enqueue admits an event, evicting the lowest-priority resident when
// the queue is full. Safe on the statement hot path: it does not
// allocate. Every admission attempt is counted; every eviction or
// rejection increments the drop counter, so the accounting identity
// never skews under overload.
func (s *Service) Enqueue(ev Event) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.enqSeq++
	ev.Order = s.enqSeq
	s.enqueued++
	_, wasDropped := s.q.push(ev)
	if wasDropped {
		s.dropped++
	}
	depth := s.q.len()
	s.mu.Unlock()

	s.metrics.incEnqueued()
	if wasDropped {
		s.metrics.incDropped()
	}
	s.metrics.setDepth(depth)
	s.cond.Signal()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.q.len() == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.ctx.Err() != nil || s.q.len() == 0 {
			// stopped with an empty queue, or force-cancelled: any
			// residents stay pending and are reported as such.
			s.mu.Unlock()
			return
		}
		ev, _ := s.q.popMax()
		s.inflight++
		depth := s.q.len()
		s.mu.Unlock()
		s.metrics.setDepth(depth)

		start := time.Now()
		res, err := s.verify(s.ctx, ev)
		elapsed := time.Since(start)

		s.mu.Lock()
		s.inflight--
		if err != nil {
			s.failed++
		} else {
			s.verdicts++
			s.pushRingLocked(VerdictRec{
				ChainSeq:     res.ChainSeq,
				AuditSeq:     ev.AuditSeq,
				Outcome:      res.Outcome,
				Priority:     ev.Priority,
				User:         ev.User,
				Expr:         ev.Expr,
				QID:          ev.QID,
				Suspicious:   res.Suspicious,
				ElapsedNanos: elapsed.Nanoseconds(),
			})
		}
		s.mu.Unlock()
		if err != nil {
			s.metrics.incFailed()
		} else {
			s.metrics.incVerdict(res.Outcome)
			s.metrics.observeVerify(elapsed)
		}
	}
}

func (s *Service) pushRingLocked(v VerdictRec) {
	s.ring[s.ringNext] = v
	s.ringNext = (s.ringNext + 1) % len(s.ring)
	if s.ringLen < len(s.ring) {
		s.ringLen++
	}
}

// Snapshot returns the resident queue in service order.
func (s *Service) Snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.snapshot()
}

// Verdicts returns the recent-verdict ring, newest first.
func (s *Service) Verdicts() []VerdictRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VerdictRec, 0, s.ringLen)
	for i := 0; i < s.ringLen; i++ {
		idx := (s.ringNext - 1 - i + len(s.ring)) % len(s.ring)
		out = append(out, s.ring[idx])
	}
	return out
}

// Stats returns a consistent accounting snapshot.
func (s *Service) Stats() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		Enqueued: s.enqueued,
		Dropped:  s.dropped,
		Verdicts: s.verdicts,
		Failed:   s.failed,
		Pending:  s.q.len() + s.inflight,
		Depth:    s.q.len(),
		Workers:  s.cfg.Workers,
	}
}

// Quiesce blocks until the queue is empty and no verification is in
// flight, or ctx expires. Test and drain helper.
func (s *Service) Quiesce(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.q.len() == 0 && s.inflight == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Stop drains and shuts the pool down: no new admissions, workers
// finish the backlog while ctx lasts, and when ctx expires in-flight
// offline audits are cancelled mid-scan (the auditor checks its
// context between candidate deletion tests). Always returns with the
// pool stopped.
func (s *Service) Stop(ctx context.Context) {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		s.cond.Broadcast()
		<-done
	}
	s.cancel()
}
