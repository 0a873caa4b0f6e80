package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// opTimeout is the harness's own ceiling on one operation; anything
// slower counts as failed.
const opTimeout = 30 * time.Second

// clientResult is what one closed-loop client saw.
type clientResult struct {
	lat       []int64 // latency (ns) of every correct operation in the measured window
	attempted int64
	failed    int64
	firings   int64   // statements the oracle says fired the trigger, warm-up included
	inserted  []int64 // acknowledged INSERT keys, warm-up included
	commits   int64   // durable units acknowledged: autocommit writes, COMMITs, trigger firings
	userBytes int64   // bytes of acknowledged INSERT/UPDATE statement text
	failures  []string
	spans     []span
}

// loopResult merges the clients.
type loopResult struct {
	lat       []int64
	attempted int64
	failed    int64
	firings   int64
	inserted  [][]int64 // per client
	commits   int64
	userBytes int64
	failures  []string
	spans     []span
}

// runClosedLoop drives one client per executor, each with one statement
// in flight: draw, send, wait for the whole reply, check it, repeat.
// Operations completed during warm-up are checked but not recorded.
// With traced set every operation also leaves a span.
func runClosedLoop(execs []executor, streams []stream, warm, measure time.Duration, spanName string, traced bool) loopResult {
	start := time.Now()
	measureStart := start.Add(warm)
	end := measureStart.Add(measure)
	results := make([]clientResult, len(execs))
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(i, execs[i], streams[i], measureStart, end, spanName, traced, &results[i])
		}(i)
	}
	wg.Wait()

	var out loopResult
	for i := range results {
		r := &results[i]
		out.lat = append(out.lat, r.lat...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.firings += r.firings
		out.commits += r.commits
		out.userBytes += r.userBytes
		out.inserted = append(out.inserted, r.inserted)
		out.failures = append(out.failures, r.failures...)
		out.spans = append(out.spans, r.spans...)
	}
	return out
}

func runClient(id int, ex executor, st stream, measureStart, end time.Time, spanName string, traced bool, res *clientResult) {
	var o op
	var r reply
	seq := int64(0)
	for {
		midTxn := o.inTxn
		st.next(&o)
		t0 := time.Now()
		if !t0.Before(end) && !midTxn {
			return
		}
		err := ex.do(&o, &r)
		t1 := time.Now()
		good := err == nil && o.correct(&r)
		if good {
			if o.wantAcc > 0 {
				res.firings++
				res.commits++ // the trigger's action commits as its own system transaction
			}
			if o.commits {
				res.commits++
			}
			if o.kind == opDML {
				res.userBytes += int64(len(o.sql))
			}
			if o.insertKey != 0 {
				res.inserted = append(res.inserted, o.insertKey)
			}
		}
		if t1.Before(measureStart) {
			if !good {
				// A wrong answer during warm-up still fails the run.
				res.attempted++
				res.fail(&o, &r, err)
			}
			if err != nil && fatal(err) {
				return
			}
			continue
		}
		if t1.After(end) {
			// Finished outside the measured window: not counted either
			// way, but its side effects were tallied above. An open
			// transaction is still run to its COMMIT.
			if !good {
				res.attempted++
				res.fail(&o, &r, err)
			}
			if !o.inTxn || (err != nil && fatal(err)) {
				return
			}
			continue
		}
		res.attempted++
		if good {
			res.lat = append(res.lat, int64(t1.Sub(t0)))
		} else {
			res.fail(&o, &r, err)
		}
		if traced {
			name := spanName
			if o.kind != opSelect {
				name += ".write" // waits on the WAL; kept apart from reads
			}
			res.spans = append(res.spans, span{
				Stmt: int64(id)<<40 | seq, Name: name, Parent: -1,
				Start: t0.Sub(measureStart).Nanoseconds(), End: t1.Sub(measureStart).Nanoseconds(),
			})
			seq++
		}
		if err != nil && fatal(err) {
			return
		}
	}
}

func (res *clientResult) fail(o *op, r *reply, err error) {
	res.failed++
	if len(res.failures) >= 5 {
		return
	}
	if err != nil {
		res.failures = append(res.failures, fmt.Sprintf("%q: %v", o.sql, err))
		return
	}
	res.failures = append(res.failures, fmt.Sprintf("%q: got rows=%d accessed=%d key=%d digest=%x, want rows=%d accessed=%d digest=%x",
		o.sql, r.rows, r.acc, r.key, r.digest, o.wantRows, o.wantAcc, o.wantDigest))
}

// fatal reports whether a client should stop: a statement the system
// rejected leaves the session usable, a broken transport does not.
func fatal(err error) bool {
	var se *stmtError
	return !errors.As(err, &se)
}

// span is one timed call, in the shape the trace files hold. Spans of
// one statement share Stmt; Parent indexes the enclosing span within
// the statement's spans, -1 for its root. Times are nanoseconds from
// the start of the traced window.
type span struct {
	Stmt   int64  `json:"stmt_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}
