package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"auditdb"
	"auditdb/internal/ast"
	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/exec"
	"auditdb/internal/lexer"
	"auditdb/internal/opt"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/trace"
	"auditdb/internal/value"
	"auditdb/internal/wal"
)

// layerMetric is one per-layer figure; BENCHMARK.json repeats these.
// Every traced run prints all of them; a layer the workload does not
// pass through reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"trace.replay_ops_s", "ops/s"},
	{"trace.overhead_pct", "%"},
	{"server.json_overhead_us", "us"},
	{"pgwire.ext_overhead_us", "us"},
	{"pgwire.simple_overhead_us", "us"},
	{"lexer.normalize_ns", "ns"},
	{"parser.parse_ns", "ns"},
	{"plan.build_ns", "ns"},
	{"opt.optimize_ns", "ns"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.shared_cache_evictions", "1/stmt"},
	{"engine.exec_self_us", "us"},
	{"exec.run_plain_us", "us"},
	{"exec.parallel_speedup_x", "x"},
	{"core.probe_overhead_pct", "%"},
	{"core.observe_batch_ns_per_row", "ns/row"},
	{"core.registry_apply_us", "us"},
	{"storage.scan_ns_per_row", "ns/row"},
	{"storage.chunks_skipped_ratio", "ratio"},
	{"wal.append_audit_us", "us"},
	{"wal.append_commit_us", "us"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.bytes_per_user_byte", "B/B"},
	{"engine.recover_s", "s"},
	{"offline.ms_per_candidate", "ms"},
	{"offline.executions_per_verdict", "count"},
	{"offline.rows_scanned_per_verdict", "count"},
	{"engine.allocs_per_op", "count"},
	{"daemon.peak_rss_mb", "MB"},
}

// maxSpansWritten caps a trace file; the header says how many spans the
// pass recorded in all.
const maxSpansWritten = 50000

// spanSet collects spans in memory; nothing is written until the pass
// ends.
type spanSet struct {
	spans []span
	t0    time.Time
}

// timed runs f and records its span as a child of the statement's root
// span (index 0 of the statement's run of spans).
func (s *spanSet) timed(stmt int64, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	s.spans = append(s.spans, span{Stmt: stmt, Name: name, Parent: 0,
		Start: t0.Sub(s.t0).Nanoseconds(), End: t1.Sub(s.t0).Nanoseconds()})
	return t1.Sub(t0)
}

// selfTimes returns, per span name, the total duration and the total
// self time: a span's duration minus the part of it its child spans
// cover. Spans of one statement must be contiguous in spans, and Parent
// indexes into that statement's run of spans.
func selfTimes(spans []span) (total, self map[string]int64, count map[string]int) {
	total, self, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Stmt == spans[lo].Stmt {
			hi++
		}
		stmt := spans[lo:hi]
		covered := make([]int64, len(stmt))
		for _, sp := range stmt {
			if sp.Parent >= 0 && sp.Parent < len(stmt) {
				p := stmt[sp.Parent]
				s, e := sp.Start, sp.End
				if s < p.Start {
					s = p.Start
				}
				if e > p.End {
					e = p.End
				}
				if e > s {
					covered[sp.Parent] += e - s
				}
			}
		}
		for i, sp := range stmt {
			d := sp.End - sp.Start
			total[sp.Name] += d
			self[sp.Name] += d - covered[i]
			count[sp.Name]++
		}
		lo = hi
	}
	return total, self, count
}

func medianDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d.Nanoseconds())
	}
	return medianFloat(fs)
}

// layerTimes holds the outside-timed calls for a sample of statements.
type layerTimes struct {
	normalize, parse, build, optimize []time.Duration
	runPlain, runAudited, sessionExec []time.Duration
	runSerial, runParallel            []time.Duration
	probePairs                        []float64 // (audited-plain)/plain per interleaved pair
}

// timeLayers replays sampled SELECTs against the embedded engine for
// budget, calling each layer's public entry point side by side and
// recording a span around every call. The engine holds the same data
// as the system under test (it is the system under test for the
// embedded workloads).
func timeLayers(db *auditdb.DB, ops []op, nproc int, budget time.Duration, ss *spanSet) (*layerTimes, error) {
	eng := db.Engine()
	env := &plan.Env{Catalog: eng.Catalog()}
	store := eng.Store()
	est := func(table string) int64 {
		if t, ok := store.Table(table); ok {
			return int64(t.Len())
		}
		return 0
	}
	sess := db.NewSession()
	defer sess.Close()
	sess.SetUser("tracer")
	lt := &layerTimes{}
	var norm lexer.Norm
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		o := &ops[i%len(ops)]
		stmt := int64(1)<<50 | int64(i)
		root := len(ss.spans)
		ss.spans = append(ss.spans, span{Stmt: stmt, Name: "stmt", Parent: -1, Start: time.Since(ss.t0).Nanoseconds()})
		var sel *ast.Select
		var n plan.Node
		var err error
		lt.normalize = append(lt.normalize, ss.timed(stmt, "lexer.normalize", func() { lexer.Normalize(o.sql, &norm) }))
		lt.parse = append(lt.parse, ss.timed(stmt, "parser.parse", func() { sel, err = parser.ParseQuery(o.sql) }))
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", o.sql, err)
		}
		lt.build = append(lt.build, ss.timed(stmt, "plan.build", func() { n, err = plan.Build(env, sel) }))
		if err != nil {
			return nil, fmt.Errorf("plan %q: %w", o.sql, err)
		}
		var par plan.Node
		lt.optimize = append(lt.optimize, ss.timed(stmt, "opt.optimize", func() {
			n = opt.Optimize(n)
			par = opt.Parallelize(n, est, nproc, engine.DefaultParallelMinRows)
		}))
		// Parallelize rewrites in place where it marks fragments, so
		// the serial side gets a plan of its own.
		serial, _, err := eng.BuildQueryPlan(o.sql, false)
		if err != nil {
			return nil, err
		}
		audited, _, err := eng.BuildQueryPlan(o.sql, true)
		if err != nil {
			return nil, err
		}
		runPlan := func(name string, p plan.Node, workers int) time.Duration {
			return ss.timed(stmt, name, func() {
				ctx := exec.NewCtx(store)
				ctx.Workers = workers
				ctx.Eval.Session = plan.SessionInfo{User: "tracer", SQL: o.sql, Now: time.Now()}
				if _, e := exec.Run(p, ctx); e != nil && err == nil {
					err = e
				}
			})
		}
		var dPlain, dAud time.Duration
		if i%2 == 0 { // alternate which side of the pair runs first
			dPlain = runPlan("exec.run_plain", serial, 1)
			dAud = runPlan("exec.run_audited", audited, 1)
		} else {
			dAud = runPlan("exec.run_audited", audited, 1)
			dPlain = runPlan("exec.run_plain", serial, 1)
		}
		lt.runPlain = append(lt.runPlain, dPlain)
		lt.runAudited = append(lt.runAudited, dAud)
		if dPlain > 0 {
			lt.probePairs = append(lt.probePairs, float64(dAud-dPlain)/float64(dPlain))
		}
		if isParallel(par) {
			lt.runSerial = append(lt.runSerial, dPlain)
			lt.runParallel = append(lt.runParallel, runPlan("exec.run_parallel", par, nproc))
		}
		lt.sessionExec = append(lt.sessionExec, ss.timed(stmt, "engine.session_exec", func() {
			if _, e := sess.Exec(o.sql); e != nil && err == nil {
				err = e
			}
		}))
		if err != nil {
			return nil, fmt.Errorf("layer timing %q: %w", o.sql, err)
		}
		ss.spans[root].End = time.Since(ss.t0).Nanoseconds()
	}
	return lt, nil
}

// isParallel reports whether Parallelize put an exchange or a
// two-phase aggregate anywhere in the plan.
func isParallel(root plan.Node) bool {
	found := false
	plan.Walk(root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Gather:
			found = true
		case *plan.Aggregate:
			found = found || x.Parallel
		}
	})
	return found
}

// sampleSelects draws the first n SELECTs of client 0's stream.
func sampleSelects(in *instance, seed int64, n int) []op {
	st := in.streams(seed)[0]
	var out []op
	var o op
	for draws := 0; len(out) < n && draws < 20*n; draws++ {
		st.next(&o)
		if o.kind == opSelect {
			out = append(out, o)
		}
	}
	return out
}

// timeFor runs f repeatedly for budget and returns each call's time.
func timeFor(budget time.Duration, f func()) []time.Duration {
	var out []time.Duration
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		f()
		out = append(out, time.Since(t0))
	}
	return out
}

// observeBatchNsPerRow times Probe.ObserveBatch on 4096-value batches
// of customer keys drawn uniformly, so the hit rate is the share of the
// table the workload's audit expression covers.
func observeBatchNsPerRow(in *instance, budget time.Duration) float64 {
	ae, ok := in.db.Engine().Registry().Get(in.expr)
	if !ok {
		return 0
	}
	rng := clientRNG(1, 0)
	vals := make([]value.Value, 4096)
	for i := range vals {
		vals[i] = value.NewInt(1 + rng.Int63n(int64(len(in.data.Customer))))
	}
	ds := timeFor(budget, func() {
		p := &core.Probe{Expr: ae, Acc: core.NewAccessed()}
		p.ObserveBatch(vals)
	})
	return medianDur(ds) / float64(len(vals))
}

// registryApplyUs times Registry.Apply for a one-row UPDATE of the
// sensitive table that moves the customer out of the audit expression
// and back (two Apply calls per iteration; the median is per call).
func registryApplyUs(in *instance, budget time.Duration) float64 {
	reg := in.db.Engine().Registry()
	row := in.data.Customer[0]
	moved := append(value.Row(nil), row...)
	if in.expr == auditSegment {
		if row[6].Str() == "BUILDING" {
			moved[6] = value.NewString("MACHINERY")
		} else {
			moved[6] = value.NewString("BUILDING")
		}
	} else {
		moved[0] = value.NewInt(int64(len(in.data.Customer)) + 1) // out of the key range
	}
	var ds []time.Duration
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		err1 := reg.Apply("customer", []value.Row{moved}, []value.Row{row})
		t1 := time.Now()
		err2 := reg.Apply("customer", []value.Row{row}, []value.Row{moved})
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			return 0
		}
		ds = append(ds, t1.Sub(t0), t2.Sub(t1))
	}
	return medianDur(ds) / 1e3
}

// scanNsPerRow times Table.ScanChunk over the largest loaded table.
func scanNsPerRow(in *instance, budget time.Duration) float64 {
	store := in.db.Engine().Store()
	name := "orders"
	if t, ok := store.Table("lineitem"); ok && t.Len() > 0 {
		name = "lineitem"
	}
	t, _ := store.Table(name)
	out := make([]value.Row, 4096)
	ids := make([]storage.RowID, 4096)
	rows := 0
	ds := timeFor(budget, func() {
		rows = 0
		for pos := 0; pos >= 0; {
			var n int
			n, pos = t.ScanChunk(pos, out, ids)
			rows += n
		}
	})
	if rows == 0 {
		return 0
	}
	return medianDur(ds) / float64(rows)
}

// walAppendUs times AppendAudit and AppendCommit on a manager of its
// own in a fresh directory, under the workload's sync policy.
func walAppendUs(e *env, policy string, budget time.Duration) (auditUs, commitUs float64, err error) {
	p, err := wal.ParseSyncPolicy(policy)
	if err != nil {
		return 0, 0, err
	}
	dir := filepath.Join(e.runDir, "wal-probe")
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	m, _, err := wal.Open(dir, wal.Options{Sync: p})
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()
	ids := []value.Value{value.NewInt(42)}
	sql := "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 42"
	var aerr, cerr error
	a := timeFor(budget/2, func() {
		if _, err := m.AppendAudit("bench0", auditRange, sql, ids, 1, time.Now().UnixNano()); err != nil {
			aerr = err
		}
	})
	logRow := value.Row{value.NewString("2026-01-01 00:00:00"), value.NewString("bench0"), value.NewString(sql), value.NewInt(42)}
	c := timeFor(budget/2, func() {
		if err := m.AppendCommit([]wal.Op{{Kind: wal.OpInsert, Table: "AccessLog", New: logRow}}); err != nil {
			cerr = err
		}
	})
	if aerr != nil {
		return 0, 0, aerr
	}
	return medianDur(a) / 1e3, medianDur(c) / 1e3, cerr
}

// phaseMeans averages the program's own phase clocks over retained
// traces: nanoseconds per statement, by phase name.
func phaseMeans(ts []*trace.Trace) (map[string]float64, int) {
	sum := map[string]float64{}
	for _, t := range ts {
		for k, v := range t.Phases {
			sum[k] += float64(v)
		}
	}
	for k := range sum {
		sum[k] /= float64(len(ts))
	}
	return sum, len(ts)
}

func fetchTraces(addr string) ([]*trace.Trace, error) {
	resp, err := http.Get("http://" + addr + "/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ts []*trace.Trace
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		return nil, fmt.Errorf("/traces: %w", err)
	}
	return ts, nil
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s float64
	for _, d := range ds {
		s += float64(d.Nanoseconds())
	}
	return s / float64(len(ds))
}

// runTraced is the per-layer pass. It replays the workload's stream
// with a span around every client call, then times each layer's public
// entry points from here, outside the program. End-to-end metrics never
// come from this pass.
func runTraced(e *env, w workload, seed int64, seconds float64) (*runRecord, error) {
	in, err := w.setup(e, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { in.close() }()
	execs := in.execs // finish may close and drop them
	hash := streamHash(in.streams(seed))
	m := map[string]float64{}
	slice := func(f float64) time.Duration { return time.Duration(seconds * f * float64(time.Second)) }

	// 1. Replay: warm-up, a slice without spans, then the traced slice.
	streams := in.streams(seed)
	watchdog := time.AfterFunc(slice(1)+2*opTimeout, killAllDaemons)
	plain := runClosedLoop(in.execs, streams, slice(1.0/8), slice(1.0/8), in.spanName, false)
	before, err := in.counters()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced := runClosedLoop(in.execs, streams, 0, slice(1.0/4), in.spanName, true)
	runtime.ReadMemStats(&ms1)
	watchdog.Stop()
	after, err := in.counters()
	if err != nil {
		return nil, err
	}
	plainRate := float64(plain.attempted-plain.failed) / slice(1.0/8).Seconds()
	m["trace.replay_ops_s"] = float64(traced.attempted-traced.failed) / slice(1.0/4).Seconds()
	if plainRate > 0 {
		m["trace.overhead_pct"] = (plainRate - m["trace.replay_ops_s"]) / plainRate * 100
	}
	counterRatios(m, before, after, &traced)
	if in.d == nil && traced.attempted > 0 {
		m["engine.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(traced.attempted)
	}

	// The program's own phase clocks for the statements just replayed —
	// read before anything else reaches the daemon's trace ring.
	var inside map[string]float64
	var insideN int
	if in.d != nil {
		m["daemon.peak_rss_mb"] = in.d.peakRSSMB()
		ts, err := fetchTraces(in.d.httpAddr)
		if err != nil {
			return nil, err
		}
		inside, insideN = phaseMeans(ts)
	}

	// End-of-run checks on the replay, as in an untraced run; for
	// mixed_durable this is the kill -9, which also yields recover_s.
	merged := traced
	merged.firings += plain.firings
	for i := range merged.inserted {
		merged.inserted[i] = append(append([]int64(nil), plain.inserted[i]...), traced.inserted[i]...)
	}
	finishErr := in.finish(&merged)
	m["engine.recover_s"] = in.recoverS

	inprocP50 := 0.0
	if in.d != nil {
		if inprocP50, err = transportOverheads(m, in, execs, traced.spans, seed, e.nproc, slice(1.0/8)); err != nil {
			return nil, err
		}
	}

	// 2. Layers, timed side by side from outside.
	ss := &spanSet{t0: time.Now()}
	lt, err := timeLayers(in.db, sampleSelects(in, seed, 512), e.nproc, slice(1.0/4), ss)
	if err != nil {
		return nil, err
	}
	m["lexer.normalize_ns"] = medianDur(lt.normalize)
	m["parser.parse_ns"] = medianDur(lt.parse)
	m["plan.build_ns"] = medianDur(lt.build)
	m["opt.optimize_ns"] = medianDur(lt.optimize)
	m["exec.run_plain_us"] = medianDur(lt.runPlain) / 1e3
	// Estimate by subtraction: the calls run side by side here, not
	// nested inside the engine.
	m["engine.exec_self_us"] = (medianDur(lt.sessionExec) - medianDur(lt.normalize) - medianDur(lt.runAudited)) / 1e3
	m["core.probe_overhead_pct"] = medianFloat(append([]float64(nil), lt.probePairs...)) * 100
	m["exec.parallel_speedup_x"] = 1
	if p := medianDur(lt.runParallel); p > 0 {
		m["exec.parallel_speedup_x"] = medianDur(lt.runSerial) / p
	}
	if in.d == nil && w.name != "offline_verify" {
		inside, insideN = phaseMeans(in.db.Engine().TraceRing().Snapshot())
	}

	// 3. Single-layer probes.
	probe := slice(1.0 / 24)
	m["core.observe_batch_ns_per_row"] = observeBatchNsPerRow(in, probe)
	m["core.registry_apply_us"] = registryApplyUs(in, probe)
	m["storage.scan_ns_per_row"] = scanNsPerRow(in, probe)
	if policy, _, _ := strings.Cut(w.sync, " "); policy == "always" || policy == "interval" {
		a, c, err := walAppendUs(e, policy, 2*probe)
		if err != nil {
			return nil, err
		}
		m["wal.append_audit_us"], m["wal.append_commit_us"] = a, c
	}
	if x, ok := execs[0].(*offlineExec); ok {
		if err := offlineCounts(m, x, in.streams(seed)[0], in.rotation); err != nil {
			return nil, err
		}
	}

	// 4. The program's phase clocks beside the outside-timed layers.
	var notes []string
	if inside != nil {
		notes = crossCheck(lt, m, inside, insideN, traced.firings, traced.attempted)
	}

	rec := &runRecord{
		Correct:   plain.failed == 0 && traced.failed == 0 && finishErr == nil && traced.attempted > 0,
		Attempted: traced.attempted, Failed: traced.failed + plain.failed,
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: true, StreamHash: hash, Sync: w.sync,
		Metrics: map[string]metric{},
	}
	for _, lm := range layerMetrics {
		rec.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}

	path := filepath.Join(e.results, "trace_"+w.name+".json")
	if err := writeSpans(path, w.name, seed, traced.spans, ss.spans); err != nil {
		return nil, err
	}
	allSpans := append(traced.spans, ss.spans...)
	total, self, count := selfTimes(allSpans)

	fmt.Printf("== %s  TRACED  seed=%d  budget=%gs  sync policy: %s\n", w.name, seed, seconds, w.sync)
	fmt.Printf("   stream sha256: %s\n", hash)
	fmt.Printf("   replay throughput: %.1f ops/s without spans, %.1f ops/s with spans (tracing overhead %.2f%%); the program's own trace sampling is on in both\n",
		plainRate, m["trace.replay_ops_s"], m["trace.overhead_pct"])
	for _, lm := range layerMetrics {
		fmt.Printf("   %-34s %16.4f %s\n", lm.name, m[lm.name], lm.unit)
	}
	if in.d != nil {
		fmt.Printf("   the same stream through %d in-process sessions: p50 %.1f us (the transport overheads above are client p50 minus this)\n", len(execs), inprocP50)
	}
	fmt.Printf("   spans: %d recorded, written to %s\n", len(allSpans), path)
	names := make([]string, 0, len(total))
	for k := range total {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   span %-26s n=%-8d total=%10.3fms self=%10.3fms\n", k, count[k], float64(total[k])/1e6, float64(self[k])/1e6)
	}
	for _, n := range notes {
		fmt.Printf("   %s\n", n)
	}
	if len(notes) > 0 {
		body := strings.Join(notes, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(e.results, "trace_"+w.name+"_notes.txt"), []byte(body), 0o644); err != nil {
			return nil, err
		}
	}
	for _, f := range append(plain.failures, traced.failures...) {
		fmt.Printf("   FAILED OP: %s\n", f)
	}
	if finishErr != nil {
		fmt.Printf("   FAILED CHECK: %v\n", finishErr)
	} else if in.note != "" {
		fmt.Printf("   checks: %s\n", in.note)
	}
	return rec, nil
}

// counterRatios turns the system's own counters, as deltas over the
// traced replay, into the ratios the layer table names.
func counterRatios(m map[string]float64, before, after map[string]int64, traced *loopResult) {
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	if q := delta("queries"); q > 0 {
		m["engine.plan_cache_hit_ratio"] = delta("plan_cache_hits") / q
	}
	if s := delta("statements"); s > 0 {
		m["engine.shared_cache_evictions"] = delta("plan_cache_shared_evictions") / s
	}
	skipped := delta("chunks_skipped_filter") + delta("chunks_skipped_audit")
	if visited := delta("chunks_scanned") + skipped; visited > 0 {
		m["storage.chunks_skipped_ratio"] = skipped / visited
	}
	if traced.commits > 0 {
		m["wal.fsyncs_per_commit"] = delta("wal_fsyncs") / float64(traced.commits)
	}
	if traced.userBytes > 0 {
		m["wal.bytes_per_user_byte"] = delta("wal_bytes_written") / float64(traced.userBytes)
	}
}

// transportOverheads sets each protocol's overhead: the median client
// round trip of SELECTs (writes wait on the WAL) minus the median
// latency of the same stream driven through in-process sessions at the
// same client count and worker budget — so the difference is the
// transport, not the contention between clients. It returns that
// in-process median in microseconds.
func transportOverheads(m map[string]float64, in *instance, execs []executor, replay []span, seed int64, nproc int, budget time.Duration) (float64, error) {
	rtt := map[int][]float64{}
	for _, sp := range replay {
		if sp.Name == in.spanName {
			c := int(sp.Stmt >> 40)
			rtt[c] = append(rtt[c], float64(sp.End-sp.Start))
		}
	}
	eng := in.db.Engine()
	eng.SetDefaultWorkers(nproc) // as auditdbd -workers defaults to
	defer eng.SetDefaultWorkers(1)
	var local []executor
	for i := range execs {
		s := in.db.NewSession()
		s.SetUser(fmt.Sprintf("local%d", i))
		local = append(local, &embeddedExec{s: s, expr: in.expr})
	}
	defer closeAll(local)
	inproc := runClosedLoop(local, in.streams(seed), budget/4, budget, "inproc", true)
	if inproc.failed > 0 {
		return 0, fmt.Errorf("in-process replay: %d operations failed: %v", inproc.failed, inproc.failures)
	}
	var base []float64
	for _, sp := range inproc.spans {
		if sp.Name == "inproc" {
			base = append(base, float64(sp.End-sp.Start))
		}
	}
	p50 := medianFloat(base)
	for c, vs := range rtt {
		over := (medianFloat(vs) - p50) / 1e3
		switch x := execs[c].(type) {
		case *jsonExec:
			m["server.json_overhead_us"] = over
		case *pgExec:
			if x.extended {
				m["pgwire.ext_overhead_us"] = over
			} else {
				m["pgwire.simple_overhead_us"] = over
			}
		}
	}
	return p50 / 1e3, nil
}

// offlineCounts audits one whole rotation — every shape once — and
// reports the auditor's exact work counts per verdict. The counts do
// not depend on the order, so they repeat exactly at any seed.
func offlineCounts(m map[string]float64, x *offlineExec, rot stream, n int) error {
	*x = offlineExec{db: x.db, expr: x.expr}
	var o op
	var r reply
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rot.next(&o)
		if err := x.do(&o, &r); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	m["offline.executions_per_verdict"] = float64(x.executions) / float64(n)
	m["offline.rows_scanned_per_verdict"] = float64(x.rowsScanned) / float64(n)
	if x.candidates > 0 {
		m["offline.ms_per_candidate"] = el.Seconds() * 1e3 / float64(x.candidates)
	}
	return nil
}

// crossCheck lines the program's own phase clocks (mean ns per
// statement over the retained traces) up against what this pass timed
// from outside, and flags every layer where the two differ by more
// than 20 %. The outside figures pay each layer's cold path on every
// statement; the program skips parse and plan on a cache hit — a flag
// on those rows measures the plan cache, not an error.
func crossCheck(lt *layerTimes, m, inside map[string]float64, n int, firings, attempted int64) []string {
	out := []string{fmt.Sprintf("phase clocks (program, mean ns/statement over %d retained traces) vs outside-timed layers (mean ns/statement over %d sampled statements):", n, len(lt.normalize))}
	fireShare := share(firings, attempted)
	type checkRow struct {
		phase   string
		outside float64 // ns per statement
		what    string
	}
	rows := []checkRow{
		{"normalize", mean(lt.normalize), "lexer.Normalize"},
		{"parse", mean(lt.parse), "parser.ParseQuery (every statement; the program parses only on a cache miss)"},
		{"plan", mean(lt.build) + mean(lt.optimize), "plan.Build + opt.Optimize/Parallelize (every statement; the program plans only on a cache miss)"},
		{"execute", mean(lt.runAudited), "exec.Run on the instrumented plan"},
		{"audit", (mean(lt.sessionExec) - mean(lt.normalize) - mean(lt.runAudited)), "Session.Exec - normalize - run (estimate: preamble, cache lookups, trigger action)"},
		{"wal", (m["wal.append_audit_us"] + m["wal.append_commit_us"]) * 1e3 * fireShare, "(AppendAudit + AppendCommit) x share of statements that fired"},
	}
	if over := max(m["server.json_overhead_us"], m["pgwire.ext_overhead_us"], m["pgwire.simple_overhead_us"]); over > 0 {
		rows = append(rows, checkRow{"transport", over * 1e3, "client round trip - in-process Session.Exec (the client's own encode/decode and the kernel included; the program clocks only its request decode)"})
	}
	for _, r := range rows {
		in := inside[r.phase]
		flag := ""
		if hi := math.Max(in, r.outside); hi > 0 && math.Abs(in-r.outside)/hi > 0.20 {
			flag = "  DISAGREE >20%"
		}
		out = append(out, fmt.Sprintf("  %-10s program=%12.0f outside=%12.0f%s   [%s]", r.phase, in, r.outside, flag, r.what))
	}
	return out
}

// writeSpans writes the pass's spans as one JSON document: the head of
// the replay's client spans and the head of the layer spans, each
// capped at half of maxSpansWritten.
func writeSpans(path, workload string, seed int64, replay, layers []span) error {
	head := func(s []span) []span {
		if len(s) > maxSpansWritten/2 {
			return s[:maxSpansWritten/2]
		}
		return s
	}
	doc := struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		SpansTotal int    `json:"spans_total"`
		Spans      []span `json:"spans"`
	}{workload, seed, len(replay) + len(layers), append(append([]span(nil), head(replay)...), head(layers)...)}
	b, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
