package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"auditdb"
	"auditdb/internal/client"
	"auditdb/internal/offline"
	"auditdb/internal/tpch"
)

// env is what a run has to work with.
type env struct {
	root    string // module root (the checkout)
	runDir  string // scratch under .bench_build: scripts, data dirs, child logs
	results string // bench/results
	nproc   int
}

// workload is one named traffic mix. The why strings are repeated in
// BENCHMARK.json; later issues refer to the names verbatim.
type workload struct {
	name string
	why  string
	// sync is the flush policy the system runs under; it is printed
	// with every result and must be the same on every commit compared.
	sync  string
	setup func(e *env, traced bool) (*instance, error)
}

// instance is a workload set up and ready for its first statement.
type instance struct {
	db   *auditdb.DB // the system under test (embedded) or the reference engine (daemon workloads)
	data *tpch.Data
	d    *daemon
	expr string // the audit expression the oracle counts

	execs    []executor
	spanName string
	// streams builds fresh per-client streams — and fresh model state —
	// for a seed; it is called once for the hash and once for the run.
	streams func(seed int64) []stream
	// counters reads the system's own counters (StatsSnapshot embedded,
	// the stats op for a daemon).
	counters func() (map[string]int64, error)
	// finish runs the end-of-run checks; an error fails the run.
	finish func(res *loopResult) error
	// note is printed with the result (what finish verified).
	note     string
	recoverS float64 // mixed_durable: daemon restart -> first Ping after kill -9
	rotation int     // offline_verify: operations per whole rotation
	close    func()
}

func workloads() []workload {
	return []workload{
		{name: "point_embedded", sync: "none (in-memory, no WAL)", setup: setupPointEmbedded,
			why: "No transport: front end, the three plan-cache layers and the one-row exec path do all the work, so an engine microsecond shows only here; 5% long tail of 8192 shapes overflows both caches."},
		{name: "point_wire", sync: "interval (50ms)", setup: setupPointWire,
			why: "Same 8 hot statements through auditdbd over line-JSON and pgwire extended with a WAL: transport and chain append dominate, so an engine-only change predicts no change here."},
		{name: "scan_analytic", sync: "none (in-memory, no WAL)", setup: setupScanAnalytic,
			why: "Millisecond scans, joins, GROUP BY, top-k and TPC-H Q3/Q10 over pgwire simple: exec/core/storage dominate, transport is noise; the only multi-core case (daemon workers = nproc)."},
		{name: "mixed_durable", sync: "always (fsync per commit)", setup: setupMixedDurable,
			why: "70/20/5/5 reads, INSERTs, audit-set-moving UPDATEs and transactions under -sync always: group commit is on the blocking path, so a read-side gain that taxes writers shows; ends with kill -9 recovery."},
		{name: "offline_verify", sync: "none (in-memory, no WAL)", setup: setupOfflineVerify,
			why: "The auditor's exact verdicts (Def 2.3) by tuple-deletion re-execution: slowest path in the system by orders of magnitude and nothing in the other four workloads runs internal/offline."},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	pointSF   = 0.02
	offlineSF = 0.01
)

// accessLogDDL is the paper's example trigger: every access to the
// audit expression is logged with who, when and which statement.
func accessLogDDL(expr string) []string {
	return []string{
		"CREATE TABLE AccessLog (At VARCHAR(40), UserID VARCHAR(30), SQL VARCHAR(600), CustKey INT)",
		"CREATE TRIGGER Log_Access ON ACCESS TO " + expr + " AS INSERT INTO AccessLog SELECT now(), userid(), sqltext(), c_custkey FROM ACCESSED",
	}
}

// loadEmbedded generates TPC-H at sf and loads the named tables (all
// when none are named) into a fresh embedded database, then runs ddl.
func loadEmbedded(sf float64, tables []string, ddl []string) (*auditdb.DB, *tpch.Data, error) {
	d := tpch.Generate(tpch.Config{SF: sf})
	db := auditdb.Open()
	eng := db.Engine()
	if len(tables) == 0 {
		if err := tpch.Load(eng, d); err != nil {
			return nil, nil, err
		}
	} else {
		if _, err := eng.ExecScript(tpch.SchemaDDL); err != nil {
			return nil, nil, err
		}
		rows := map[string][]auditdb.Row{"customer": d.Customer, "orders": d.Orders}
		for _, t := range tables {
			if err := eng.LoadRows(t, rows[t]); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, q := range ddl {
		if _, err := db.Exec(q); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q, err)
		}
	}
	return db, d, nil
}

// pointSensN is the range expression's size: the first 10 % of the
// customers at pointSF.
const pointSensN = int64(pointSF * 150000 / 10)

// loadPoint loads what every point workload reads — customer, orders,
// the o_custkey index — and declares the audit expression with the
// AccessLog trigger on it.
func loadPoint(auditDDL, expr string) (*auditdb.DB, *tpch.Data, error) {
	ddl := append([]string{"CREATE INDEX idx_o_cust ON orders (o_custkey)", auditDDL}, accessLogDDL(expr)...)
	return loadEmbedded(pointSF, []string{"customer", "orders"}, ddl)
}

func embeddedCounters(db *auditdb.DB) func() (map[string]int64, error) {
	return func() (map[string]int64, error) { return db.Stats(), nil }
}

// ---- point_embedded ----

func setupPointEmbedded(e *env, traced bool) (*instance, error) {
	const sensN = pointSensN
	db, d, err := loadPoint(tpch.AuditCustomerRange(auditRange, int(sensN)), auditRange)
	if err != nil {
		return nil, err
	}
	if traced {
		db.Engine().SetTraceSampling(1)
	}
	in := &instance{db: db, data: d, expr: auditRange, spanName: "engine.session_exec",
		counters: embeddedCounters(db), close: func() {}}
	for i := 0; i < e.nproc; i++ {
		s := db.NewSession()
		s.SetUser(fmt.Sprintf("bench%d", i))
		in.execs = append(in.execs, &embeddedExec{s: s, expr: auditRange})
	}
	hot := hotTemplates()
	tail := make([]*template, tailShapes)
	for i := range tail {
		tail[i] = tailTemplate(i)
	}
	in.streams = func(seed int64) []stream {
		m := newModel(d, sensN)
		out := make([]stream, e.nproc)
		for i := range out {
			out[i] = &pointStream{rng: clientRNG(seed, i), m: m, hot: hot, tail: tail, tailShare: 0.05,
				lo: 1, hi: int64(m.nCust), sensHi: sensN}
		}
		return out
	}
	in.finish = func(res *loopResult) error {
		// Every firing inserted one AccessLog row (each statement
		// accesses at most one sensitive customer).
		r, err := db.Query("SELECT COUNT(*) FROM AccessLog")
		if err != nil {
			return err
		}
		if got := r.Rows[0][0].Int(); got != res.firings {
			return fmt.Errorf("AccessLog holds %d rows, the oracle expected %d firings", got, res.firings)
		}
		in.note = fmt.Sprintf("AccessLog rows = expected firings = %d", res.firings)
		return nil
	}
	return in, nil
}

// ---- daemon plumbing shared by the three wire workloads ----

// bootDaemon dumps db as an init script and starts auditdbd on it.
func bootDaemon(e *env, db *auditdb.DB, name string, traced bool, args ...string) (*daemon, error) {
	bin, err := buildDaemon(e.root)
	if err != nil {
		return nil, err
	}
	script := filepath.Join(e.runDir, name+".sql")
	f, err := os.Create(script)
	if err != nil {
		return nil, err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	args = append([]string{"-init", script, "-triage-workers", "0", "-query-timeout", opTimeout.String()}, args...)
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	return startDaemon(bin, filepath.Join(e.runDir, name+".log"), traced, args...)
}

func freshDataDir(e *env, name string) (string, error) {
	dir := filepath.Join(e.runDir, name+"-data")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func daemonCounters(addr string) func() (map[string]int64, error) {
	return func() (map[string]int64, error) {
		c, err := client.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.Stats()
	}
}

// verifyChain runs VERIFY AUDIT LOG and checks the chain holds exactly
// one record per expected firing.
func verifyChain(addr string, firings int64) (string, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return "", err
	}
	defer c.Close()
	v, err := c.VerifyAuditLog()
	if err != nil {
		return "", fmt.Errorf("VERIFY AUDIT LOG: %w", err)
	}
	if !v.Valid {
		return "", fmt.Errorf("VERIFY AUDIT LOG: chain invalid: %s", v.Reason)
	}
	if int64(v.Records) != firings {
		return "", fmt.Errorf("audit chain holds %d records, the oracle expected %d firings", v.Records, firings)
	}
	return fmt.Sprintf("VERIFY AUDIT LOG valid, chain records = expected firings = %d", firings), nil
}

func closeAll(execs []executor) {
	for _, x := range execs {
		x.close()
	}
}

// ---- point_wire ----

func setupPointWire(e *env, traced bool) (*instance, error) {
	const sensN = pointSensN
	db, d, err := loadPoint(tpch.AuditCustomerRange(auditRange, int(sensN)), auditRange)
	if err != nil {
		return nil, err
	}
	dir, err := freshDataDir(e, "point_wire")
	if err != nil {
		return nil, err
	}
	dm, err := bootDaemon(e, db, "point_wire", traced, "-data-dir", dir, "-sync", "interval")
	if err != nil {
		return nil, err
	}
	in := &instance{db: db, data: d, d: dm, expr: auditRange, spanName: "client.roundtrip",
		counters: daemonCounters(dm.jsonAddr)}
	in.close = func() { closeAll(in.execs); dm.kill() }
	for i := 0; i < e.nproc; i++ {
		user := fmt.Sprintf("bench%d", i)
		if i%2 == 0 {
			c, err := client.Dial(dm.jsonAddr)
			if err == nil {
				err = c.SetUser(user)
			}
			if err != nil {
				in.close()
				return nil, err
			}
			in.execs = append(in.execs, &jsonExec{c: c, expr: auditRange})
		} else {
			x, err := dialPG(dm.pgAddr, user, auditRange, true, false)
			if err != nil {
				in.close()
				return nil, err
			}
			in.execs = append(in.execs, x)
		}
	}
	hot := hotTemplates()
	in.streams = func(seed int64) []stream {
		m := newModel(d, sensN)
		out := make([]stream, e.nproc)
		for i := range out {
			out[i] = &pointStream{rng: clientRNG(seed, i), m: m, hot: hot, lo: 1, hi: int64(m.nCust), sensHi: sensN}
		}
		return out
	}
	in.finish = func(res *loopResult) error {
		note, err := verifyChain(dm.jsonAddr, res.firings)
		in.note = note
		return err
	}
	return in, nil
}

// ---- scan_analytic ----

// scanTemplate is one analytic shape with a few literal variants and
// the number of cards it gets in the 100-card deck (its weight in
// percent). All variants' expected results are computed once, at
// set-up, on the embedded reference engine (workers=1, skipping off).
type scanTemplate struct {
	name     string
	cards    int
	variants []string
}

func scanTemplates() []scanTemplate {
	q := tpch.Queries(tpch.DefaultParams())
	var rng, micro, group, topk []string
	for _, k := range []int{2000, 18000, 34000, 51000} {
		// Zone maps skip every orders chunk outside the key range; the
		// audit operator hoists above the join (HCN).
		rng = append(rng, fmt.Sprintf("SELECT c_custkey, c_name, o_orderkey, o_totalprice FROM orders, customer WHERE c_custkey = o_custkey AND o_orderkey BETWEEN %d AND %d", k, k+160))
	}
	for _, cut := range []string{"1998-01-20", "1998-01-28", "1998-02-05", "1998-02-12"} {
		// c_acctbal > 7800 keeps 20 % of customers.
		micro = append(micro, tpch.MicroJoinQuery(7800, cut))
	}
	for _, cut := range []string{"1993-01-01", "1995-01-01", "1996-06-01", "1997-06-01"} {
		group = append(group, fmt.Sprintf("SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate > DATE '%s' GROUP BY o_orderpriority", cut))
	}
	for _, n := range []int{3, 9, 14, 21} {
		// Top-k blocks audit pull-up: placement is conservative.
		topk = append(topk, fmt.Sprintf("SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_nationkey <> %d ORDER BY c_acctbal DESC LIMIT 20", n))
	}
	return []scanTemplate{
		{"audited_range_join", 20, rng},
		// No filter: nothing for zone maps to refute, only probe elision.
		{"audited_aggregate", 20, []string{"SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer GROUP BY c_nationkey"}},
		{"micro_join_20pct", 25, micro},
		{"orders_group_by", 15, group},
		{"customer_top_k", 10, topk},
		{"tpch_q3", 5, []string{q[0].SQL}},
		{"tpch_q10", 5, []string{q[4].SQL}},
	}
}

func setupScanAnalytic(e *env, traced bool) (*instance, error) {
	db, d, err := loadEmbedded(pointSF, nil,
		append([]string{tpch.AuditCustomerRange(auditRange, int(pointSensN))}, accessLogDDL(auditRange)...))
	if err != nil {
		return nil, err
	}
	dm, err := bootDaemon(e, db, "scan_analytic", traced)
	if err != nil {
		return nil, err
	}
	in := &instance{db: db, data: d, d: dm, expr: auditRange, spanName: "client.roundtrip",
		counters: daemonCounters(dm.jsonAddr)}
	in.close = func() { closeAll(in.execs); dm.kill() }
	for i := 0; i < e.nproc; i++ {
		x, err := dialPG(dm.pgAddr, fmt.Sprintf("bench%d", i), auditRange, false, true)
		if err != nil {
			in.close()
			return nil, err
		}
		in.execs = append(in.execs, x)
	}

	// Oracle: the reference engine answers every variant once, serial
	// and with data skipping off.
	var deck []op
	variants := 0
	for _, t := range scanTemplates() {
		var ops []op
		for _, sql := range t.variants {
			o, err := referenceSelect(db, sql)
			if err != nil {
				in.close()
				return nil, fmt.Errorf("reference %s: %w", t.name, err)
			}
			ops = append(ops, o)
		}
		variants += len(ops)
		for c := 0; c < t.cards; c++ {
			deck = append(deck, ops[c%len(ops)])
		}
	}
	in.streams = func(seed int64) []stream {
		out := make([]stream, e.nproc)
		for i := range out {
			out[i] = &deckStream{rng: clientRNG(seed, i), ops: deck}
		}
		return out
	}
	in.finish = func(*loopResult) error {
		in.note = fmt.Sprintf("%d statement variants checked row for row against the serial reference engine", variants)
		return nil
	}
	return in, nil
}

// referenceSelect runs sql on the embedded reference engine with one
// worker and chunk skipping off, and returns the op carrying what every
// later reply must match.
func referenceSelect(db *auditdb.DB, sql string) (op, error) {
	s := db.Engine().NewSession()
	defer s.Close()
	s.SetUser("oracle")
	s.SetWorkers(1)
	s.SetSkipping(false)
	res, err := s.Query(sql)
	if err != nil {
		return op{}, err
	}
	o := op{kind: opSelect, sql: sql, wantRows: len(res.Rows), wantDigest: digestRows(res.Rows), checkDigest: true}
	if res.Accessed != nil {
		o.wantAcc = res.Accessed.Len(auditRange)
	}
	return o, nil
}

// ---- mixed_durable ----

// mixedInsertBase keeps each connection's inserted o_orderkeys apart
// from the generated data and from each other.
const mixedInsertBase = 10_000_000

func setupMixedDurable(e *env, traced bool) (*instance, error) {
	db, d, err := loadPoint(tpch.AuditCustomerSegment(auditSegment, "BUILDING"), auditSegment)
	if err != nil {
		return nil, err
	}
	dir, err := freshDataDir(e, "mixed_durable")
	if err != nil {
		return nil, err
	}
	durableArgs := []string{"-data-dir", dir, "-sync", "always"}
	dm, err := bootDaemon(e, db, "mixed_durable", traced, durableArgs...)
	if err != nil {
		return nil, err
	}
	in := &instance{db: db, data: d, d: dm, expr: auditSegment, spanName: "client.roundtrip",
		counters: daemonCounters(dm.jsonAddr)}
	in.close = func() { closeAll(in.execs); in.d.kill() }
	for i := 0; i < e.nproc; i++ {
		c, err := client.Dial(dm.jsonAddr)
		if err == nil {
			err = c.SetUser(fmt.Sprintf("bench%d", i))
		}
		if err != nil {
			in.close()
			return nil, err
		}
		in.execs = append(in.execs, &jsonExec{c: c, expr: auditSegment})
	}
	hot := hotTemplates()
	var models []*model // the run's models, read by finish
	in.streams = func(seed int64) []stream {
		models = models[:0]
		out := make([]stream, e.nproc)
		span := int64(len(d.Customer) / e.nproc)
		for i := range out {
			// One model per connection: each mutates only its own key
			// range, and a private copy keeps the hash pass from
			// leaking state into the run.
			m := newModel(d, 0)
			models = append(models, m)
			out[i] = &mixedStream{
				pointStream: pointStream{rng: clientRNG(seed, i), m: m, hot: hot,
					lo: 1 + int64(i)*span, hi: int64(i+1) * span},
				nextOrder: mixedInsertBase * int64(i+1),
				updates:   i == 0,
			}
		}
		return out
	}
	in.finish = func(res *loopResult) error {
		note, err := verifyChain(in.d.jsonAddr, res.firings)
		if err != nil {
			return err
		}
		// Crash: SIGKILL, restart on the same directory, and every
		// acknowledged write must be there. (kill -9 keeps the OS page
		// cache, so this checks the log's completeness and replay, not
		// what a power cut would leave.)
		closeAll(in.execs)
		in.execs = nil
		in.d.kill()
		t0 := time.Now()
		nd, err := startDaemon(filepath.Join(e.root, buildDir, "auditdbd"),
			filepath.Join(e.runDir, "mixed_durable-recovered.log"), false,
			append([]string{"-triage-workers", "0"}, durableArgs...)...)
		if err != nil {
			return fmt.Errorf("restart after kill -9: %w", err)
		}
		in.recoverS = time.Since(t0).Seconds()
		in.d = nd
		c, err := client.Dial(nd.jsonAddr)
		if err != nil {
			return err
		}
		defer c.Close()
		// The chain first: the BUILDING count below is itself an audited
		// read and appends a record.
		v, err := c.VerifyAuditLog()
		if err != nil {
			return err
		}
		if !v.Valid || int64(v.Records) != res.firings {
			return fmt.Errorf("after kill -9: audit chain valid=%v records=%d, want %d (%s)", v.Valid, v.Records, res.firings, v.Reason)
		}
		acked := 0
		for i, keys := range res.inserted {
			if len(keys) == 0 {
				continue
			}
			lo, hi := keys[0], keys[len(keys)-1]
			if hi-lo+1 != int64(len(keys)) {
				return fmt.Errorf("connection %d: acknowledged INSERT keys are not contiguous", i)
			}
			r, err := c.Query(fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE o_orderkey >= %d AND o_orderkey <= %d", lo, hi))
			if err != nil {
				return err
			}
			if got := r.Rows[0][0].(int64); got != int64(len(keys)) {
				return fmt.Errorf("after kill -9: connection %d has %d of %d acknowledged INSERTs", i, got, len(keys))
			}
			acked += len(keys)
		}
		want := 0
		// Each model saw only its own connection's UPDATEs; keys past
		// the last whole range were never updated by anyone.
		for k := 1; k <= len(d.Customer); k++ {
			owner := (k - 1) / (len(d.Customer) / e.nproc)
			if owner >= len(models) {
				owner = len(models) - 1
			}
			if models[owner].building[k] {
				want++
			}
		}
		r, err := c.Query("SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'BUILDING'")
		if err != nil {
			return err
		}
		if got := r.Rows[0][0].(int64); got != int64(want) {
			return fmt.Errorf("after kill -9: %d customers in BUILDING, the model says %d", got, want)
		}
		in.note = note + fmt.Sprintf("; after kill -9 and restart (%.3fs): all %d acknowledged INSERTs present, %d BUILDING customers match the model, chain still valid",
			in.recoverS, acked, want)
		return nil
	}
	return in, nil
}

// ---- offline_verify ----

// offlineExec loops auditdb.DB.OfflineAudit; one operation is one
// verdict, and its "rows" are the exact accessed ids.
type offlineExec struct {
	db   *auditdb.DB
	expr string
	// cost sums the reports' exact work counts (traced pass).
	candidates, executions int64
	rowsScanned            int64
}

func (x *offlineExec) do(o *op, r *reply) error {
	rep, err := x.db.OfflineAudit(o.sql, x.expr)
	if err != nil {
		return &stmtError{err}
	}
	*r = reply{rows: len(rep.AccessedIDs), digest: digestRows([]auditdb.Row{rep.AccessedIDs})}
	x.candidates += int64(rep.Candidates)
	x.executions += int64(rep.Executions)
	x.rowsScanned += rep.RowsScanned
	return nil
}

func (x *offlineExec) close() {}

// offlineSensN sizes the audit expression so one verdict costs
// 2-20 ms at SF 0.01: the deletion test re-executes the query once per
// candidate.
const offlineSensN = 12

// offlineRotation is the auditor's fixed rotation: three select-join
// shapes (online must equal offline, Thm 3.7), one single-level
// aggregate and one top-k (online must cover offline, Claim 3.6). An
// odd count keeps the median inside one shape's cluster of latencies
// rather than on the boundary between two.
func offlineRotation() (sqls []string, selectJoin []bool) {
	return []string{
			tpch.MicroJoinQuery(5000, "1997-01-01"),
			"SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer GROUP BY c_mktsegment",
			"SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND o_totalprice > 300000",
			"SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC LIMIT 20",
			"SELECT c_custkey, c_name FROM customer WHERE c_acctbal > 0",
		},
		[]bool{true, false, true, false, true}
}

func setupOfflineVerify(e *env, traced bool) (*instance, error) {
	db, d, err := loadEmbedded(offlineSF, nil, []string{tpch.AuditCustomerRange(auditRange, offlineSensN)})
	if err != nil {
		return nil, err
	}
	db.SetAuditAll(true)
	in := &instance{db: db, data: d, expr: auditRange, spanName: "offline.audit",
		counters: embeddedCounters(db), close: func() {}}
	in.execs = []executor{&offlineExec{db: db, expr: auditRange}}

	// Oracle: serial, skipping off. And the paper's guarantees, checked
	// once per shape: online ACCESSED covers the exact set, and equals
	// it on select-join queries.
	ae, _ := db.Engine().Registry().Get(auditRange)
	refAuditor := offline.New(db.Engine().Catalog(), db.Engine().Store())
	refAuditor.Parallelism = 1
	refAuditor.NoSkip = true
	sqls, selectJoin := offlineRotation()
	var ops []op
	for i, sql := range sqls {
		rep, err := refAuditor.Audit(sql, ae)
		if err != nil {
			return nil, fmt.Errorf("reference audit: %w", err)
		}
		ops = append(ops, op{kind: opSelect, sql: sql, wantRows: len(rep.AccessedIDs),
			wantDigest: digestRows([]auditdb.Row{rep.AccessedIDs}), checkDigest: true})
		online, err := db.Query(sql)
		if err != nil {
			return nil, err
		}
		on := map[string]bool{}
		for _, id := range online.AccessedIDs(auditRange) {
			on[id.String()] = true
		}
		for _, id := range rep.AccessedIDs {
			if !on[id.String()] {
				return nil, fmt.Errorf("Claim 3.6 violated: offline id %s missing from online ACCESSED for %q", id, sql)
			}
		}
		if selectJoin[i] && len(on) != len(rep.AccessedIDs) {
			return nil, fmt.Errorf("Thm 3.7 violated: online %d ids, offline %d for select-join %q", len(on), len(rep.AccessedIDs), sql)
		}
	}
	in.rotation = len(ops)
	in.streams = func(seed int64) []stream { return []stream{&deckStream{rng: clientRNG(seed, 0), ops: ops}} }
	in.finish = func(*loopResult) error {
		in.note = "every verdict equals the serial skipping-off reference; online covers offline on all shapes and equals it on select-join"
		return nil
	}
	return in, nil
}
