package triage

import (
	"time"

	"auditdb/internal/obs"
)

// Metrics is the triage subsystem's slice of the process metrics
// registry. A nil *Metrics is valid and drops every observation, so
// the service runs unobserved in unit tests and embedded use.
type Metrics struct {
	Enqueued  *obs.Counter    // triage_enqueued
	Dropped   *obs.Counter    // triage_dropped (evictions + rejected admissions)
	Verdicts  *obs.CounterVec // triage_verdicts by outcome
	Failed    *obs.Counter    // triage_failed (verdict could not be written)
	Depth     *obs.Gauge      // triage_queue_depth
	VerifyDur *obs.Histogram  // triage_verify_seconds
}

// NewMetrics registers the triage metrics on r. Registration is
// idempotent (obs returns existing entries).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Enqueued: r.NewCounter("auditdb_triage_enqueued_total", "triage_enqueued",
			"Trigger firings admitted to the triage queue."),
		Dropped: r.NewCounter("auditdb_triage_dropped_total", "triage_dropped",
			"Triage events dropped by the bounded queue's lowest-priority eviction policy."),
		Verdicts: r.NewCounterVec("auditdb_triage_verdicts_total", "triage_verdicts",
			"Signed triage verdict records appended to the audit chain, by outcome.", "outcome"),
		Failed: r.NewCounter("auditdb_triage_failed_total", "triage_failed",
			"Triage events consumed without a verdict (verification or append error)."),
		Depth: r.NewGauge("auditdb_triage_queue_depth", "triage_queue_depth",
			"Events currently resident in the triage queue."),
		VerifyDur: r.NewHistogram("auditdb_triage_verify_seconds", "triage_verify_seconds",
			"Verification wall time per triage event, in seconds.", obs.LatencyBuckets),
	}
}

func (m *Metrics) incEnqueued() {
	if m != nil {
		m.Enqueued.Inc()
	}
}

func (m *Metrics) incDropped() {
	if m != nil {
		m.Dropped.Inc()
	}
}

func (m *Metrics) incVerdict(outcome string) {
	if m != nil {
		m.Verdicts.With(outcome).Inc()
	}
}

func (m *Metrics) incFailed() {
	if m != nil {
		m.Failed.Inc()
	}
}

func (m *Metrics) setDepth(n int) {
	if m != nil {
		m.Depth.Set(int64(n))
	}
}

func (m *Metrics) observeVerify(d time.Duration) {
	if m != nil {
		m.VerifyDur.ObserveDuration(d)
	}
}
