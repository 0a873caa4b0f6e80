package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"auditdb/internal/core"
)

// healthScript is newHealthDB's setup plus the audit expressions the
// shared-cache tests instrument against; both the cached engine and
// the uncached reference engine run it verbatim.
const auditedHealthScript = `
	CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10));
	CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
	INSERT INTO Patients VALUES
		(1, 'Alice', 34, '48109'),
		(2, 'Bob', 21, '48109'),
		(3, 'Carol', 47, '98052'),
		(4, 'Dave', 29, '98052'),
		(5, 'Erin', 62, '10001');
	INSERT INTO Disease VALUES
		(1, 'cancer'),
		(2, 'flu'),
		(3, 'flu'),
		(4, 'diabetes'),
		(5, 'cancer');
	CREATE AUDIT EXPRESSION Elderly AS
		SELECT * FROM Patients WHERE Age >= 45
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
	CREATE AUDIT EXPRESSION Midtown AS
		SELECT * FROM Patients WHERE Zip = '48109'
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
`

func newAuditedDB(t *testing.T, uncached bool) *Engine {
	t.Helper()
	e := New()
	e.disablePlanCache = uncached
	if _, err := e.ExecScript(auditedHealthScript); err != nil {
		t.Fatalf("setup: %v", err)
	}
	e.SetAuditAll(true)
	return e
}

// resultSig renders everything audit-relevant about a result — output
// schema, row values in order, and the full ACCESSED state — into one
// comparable string.
func resultSig(r *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for _, v := range row {
			b.WriteString(v.SQL())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	if r.Accessed != nil {
		for _, expr := range r.Accessed.Expressions() {
			b.WriteString(expr)
			b.WriteByte('=')
			for _, id := range r.Accessed.IDs(expr) {
				b.WriteString(id.SQL())
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestCanonCacheEquivalence runs a battery of SELECT shapes through
// the normalized fast path three times — cold, L1-warm, and from a
// second session that adopts the shared template — and demands rows,
// columns and ACCESSED sets byte-identical to an engine with both
// cache levels disabled.
func TestCanonCacheEquivalence(t *testing.T) {
	cached := newAuditedDB(t, false)
	ref := newAuditedDB(t, true)

	queries := []string{
		"SELECT Name FROM Patients WHERE PatientID = 2",
		"SELECT Name FROM Patients WHERE PatientID = 4",
		"SELECT Name, Age FROM Patients WHERE Age > 30 ORDER BY Name",
		"SELECT Name FROM Patients WHERE Zip = '48109' ORDER BY 1",
		"SELECT Name FROM Patients WHERE 1 = 1 ORDER BY Name",
		"SELECT Name FROM Patients WHERE 1 = 2 ORDER BY Name",
		"SELECT Name FROM Patients ORDER BY Age LIMIT 2",
		"SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip ORDER BY 1",
		"SELECT Name FROM Patients WHERE Age > (SELECT AVG(Age) FROM Patients WHERE Zip = '98052') ORDER BY Name",
		"SELECT Name FROM Patients WHERE Age BETWEEN 25 AND 50 ORDER BY Name",
		"SELECT Name FROM Patients WHERE PatientID IN (1, 3, 5) ORDER BY Name",
		"SELECT Name FROM Patients WHERE Name = 'O''Brien'",
		"SELECT P.Name, D.Disease FROM Patients P, Disease D WHERE P.PatientID = D.PatientID AND D.Disease = 'flu' ORDER BY P.Name",
		"SELECT Name FROM Patients WHERE Age >= 45 AND Zip = '98052'",
	}

	sessions := []*Session{
		cached.DefaultSession(), // rounds 0-1: cold then L1-warm
		cached.DefaultSession(),
		cached.NewSession(), // round 2: shared-template adoption
	}
	for round, sess := range sessions {
		for _, q := range queries {
			got, err := sess.Exec(q)
			if err != nil {
				t.Fatalf("round %d: cached Exec(%q): %v", round, q, err)
			}
			want, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("round %d: reference Exec(%q): %v", round, q, err)
			}
			if g, w := resultSig(got), resultSig(want); g != w {
				t.Fatalf("round %d: %q diverged\ncached:\n%s\nreference:\n%s", round, q, g, w)
			}
		}
	}

	// Error fidelity: a canonical text that parses but fails to plan
	// must fall back and report the same error as the raw path.
	badSQL := "SELECT Nope FROM Patients WHERE PatientID = 1"
	_, cerr := cached.Exec(badSQL)
	_, rerr := ref.Exec(badSQL)
	if cerr == nil || rerr == nil || cerr.Error() != rerr.Error() {
		t.Fatalf("error fidelity: cached %v, reference %v", cerr, rerr)
	}
}

// TestSharedCacheCrossSession pins the metric accounting of the
// two-level cache: the first execution of a shape is a shared miss,
// the same session's repeat is an L1 hit, and a second session's
// first execution adopts the shared template without replanning.
func TestSharedCacheCrossSession(t *testing.T) {
	e := newAuditedDB(t, false)
	sA := e.NewSession()
	sB := e.NewSession()
	snap := func(k string) int64 { return e.StatsSnapshot()[k] }

	misses0 := snap("plan_cache_shared_misses")
	hits0 := snap("plan_cache_shared_hits")
	l10 := snap("plan_cache_hits")

	if _, err := sA.Exec("SELECT Name FROM Patients WHERE PatientID = 1"); err != nil {
		t.Fatal(err)
	}
	if d := snap("plan_cache_shared_misses") - misses0; d != 1 {
		t.Fatalf("cold execution: shared misses = %d, want 1", d)
	}
	if d := snap("plan_cache_shared_hits") - hits0; d != 0 {
		t.Fatalf("cold execution: shared hits = %d, want 0", d)
	}

	// Same shape, different literal, same session: L1 hit, shared
	// cache untouched.
	if _, err := sA.Exec("SELECT Name FROM Patients WHERE PatientID = 3"); err != nil {
		t.Fatal(err)
	}
	if d := snap("plan_cache_hits") - l10; d != 1 {
		t.Fatalf("warm L1 execution: plan cache hits = %d, want 1", d)
	}
	if d := snap("plan_cache_shared_hits") - hits0; d != 0 {
		t.Fatalf("warm L1 execution: shared hits = %d, want 0", d)
	}

	// Same shape from a different session: adopted from the shared
	// cache, no new miss.
	res, err := sB.Exec("SELECT Name FROM Patients WHERE PatientID = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Erin" {
		t.Fatalf("adopted plan rows = %v", res.Rows)
	}
	if d := snap("plan_cache_shared_hits") - hits0; d != 1 {
		t.Fatalf("cross-session execution: shared hits = %d, want 1", d)
	}
	if d := snap("plan_cache_shared_misses") - misses0; d != 1 {
		t.Fatalf("cross-session execution: shared misses = %d, want 1 (no replan)", d)
	}
	if n := snap("plan_cache_shared_entries"); n < 1 {
		t.Fatalf("shared entries gauge = %d, want >= 1", n)
	}

	// The adopted plan still audits: Erin (age 62) is Elderly.
	if res.Accessed == nil || res.Accessed.Len("Elderly") != 1 {
		t.Fatalf("adopted plan lost audit instrumentation: %v", res.Accessed)
	}
}

// TestCanonCacheDDLInvalidation: DDL bumps the global catalog version,
// so both cache levels must drop warm plans. An audit expression
// created after a shape went warm has to be instrumented on the very
// next execution of that shape.
func TestCanonCacheDDLInvalidation(t *testing.T) {
	e := newHealthDB(t) // no audit expressions yet
	e.SetAuditAll(true)
	const q = "SELECT Name FROM Patients WHERE Age >= 60"
	for i := 0; i < 3; i++ { // cold + two warm hits
		r := mustExec(t, e, q)
		if r.Accessed != nil {
			t.Fatalf("execution %d: unexpected ACCESSED before any audit expression: %v", i, r.Accessed)
		}
	}
	mustExec(t, e, `CREATE AUDIT EXPRESSION Seniors AS
		SELECT * FROM Patients WHERE Age >= 60
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`)
	r := mustExec(t, e, q)
	if r.Accessed == nil || r.Accessed.Len("Seniors") != 1 {
		t.Fatalf("post-DDL execution served a stale plan: ACCESSED = %v", r.Accessed)
	}
	if ids := r.Accessed.IDs("Seniors"); len(ids) != 1 || ids[0].Int() != 5 {
		t.Fatalf("Seniors IDs = %v, want [5]", ids)
	}
}

// TestPlacementChangeInvalidatesCachedPlans: placement is no planning
// knob, so nothing in a plan-cache key tells an hcn plan from a leaf
// one; SetHeuristic's version bump must drop both levels. Session a
// warms the flu join (its L1 entry and the shared template are hcn);
// after the switch to leaf, session b's first run must not adopt that
// template and a's next run must not hit its L1 entry.
func TestPlacementChangeInvalidatesCachedPlans(t *testing.T) {
	e := newAuditedDB(t, false)
	a, b := e.NewSession(), e.NewSession()
	defer a.Close()
	defer b.Close()
	const q = `SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`
	ids := func(s *Session) string {
		t.Helper()
		r, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r.Accessed.IDs("Elderly"), r.Accessed.IDs("Midtown"))
	}
	// hcn audits the join result (Bob, Carol); leaf audits every
	// patient its scan passes (Alice and Erin too).
	const hcn, leaf = "[3] [2]", "[3 5] [1 2]"
	for i := 0; i < 2; i++ { // cold, then an L1 hit
		if got := ids(a); got != hcn {
			t.Fatalf("hcn run %d: accessed %s, want %s", i, got, hcn)
		}
	}
	e.SetHeuristic(core.LeafNode)
	if got := ids(b); got != leaf {
		t.Fatalf("session b adopted the hcn template after the switch to leaf: accessed %s, want %s", got, leaf)
	}
	if got := ids(a); got != leaf {
		t.Fatalf("session a hit its hcn L1 entry after the switch to leaf: accessed %s, want %s", got, leaf)
	}
}

// TestFoldSensitiveBypass: `WHERE 1 = 1` and `WHERE 1 = 2` normalize
// to the same canonical text but fold to different plans, so the shape
// must be remembered as bypass and each statement executed from its
// raw text — in every session, warm or cold.
func TestFoldSensitiveBypass(t *testing.T) {
	e := newAuditedDB(t, false)
	sB := e.NewSession()
	cases := []struct {
		sql  string
		rows int
	}{
		{"SELECT Name FROM Patients WHERE 1 = 1", 5},
		{"SELECT Name FROM Patients WHERE 1 = 2", 0},
		{"SELECT Name FROM Patients WHERE 2 = 2", 5},
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			for _, sess := range []*Session{e.DefaultSession(), sB} {
				r, err := sess.Exec(c.sql)
				if err != nil {
					t.Fatalf("Exec(%q): %v", c.sql, err)
				}
				if len(r.Rows) != c.rows {
					t.Fatalf("round %d: %q returned %d rows, want %d (bypass not honored)",
						round, c.sql, len(r.Rows), c.rows)
				}
			}
		}
	}
}

// TestSharedCacheWorkload is the end-to-end acceptance workload: 100
// distinct statement shapes, each executed 1000 times with varying
// literals across 8 concurrent sessions. The shared-cache hit rate
// must reach 99% and the audit trail must be byte-identical to the
// same per-session statement streams replayed serially on an engine
// with caching disabled.
func TestSharedCacheWorkload(t *testing.T) {
	shapes, reps := 100, 125 // 8 sessions * 125 = 1000 executions per shape
	if testing.Short() {
		shapes, reps = 20, 10
	}
	const nSessions = 8

	// Shape k is a SELECT with k+1 conjuncts; structure, not literal
	// values, is what distinguishes canonical texts.
	stmt := func(shape, rep int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT Name, Age FROM Patients WHERE PatientID >= %d", rep%5+1)
		for c := 0; c < shape; c++ {
			col := [...]string{"Age", "PatientID"}[c%2]
			fmt.Fprintf(&b, " AND %s >= %d", col, (rep+c)%7)
		}
		return b.String()
	}

	run := func(e *Engine, concurrent bool) []string {
		t.Helper()
		var mu sync.Mutex
		events := make(map[string][]string, nSessions)
		e.OnAccess(func(ev AccessEvent) {
			var b strings.Builder
			b.WriteString(ev.Expression)
			b.WriteByte('|')
			b.WriteString(ev.User)
			b.WriteByte('|')
			b.WriteString(ev.SQL)
			b.WriteByte('|')
			for _, id := range ev.IDs {
				b.WriteString(id.SQL())
				b.WriteByte(',')
			}
			mu.Lock()
			events[ev.User] = append(events[ev.User], b.String())
			mu.Unlock()
		})
		sessions := make([]*Session, nSessions)
		for i := range sessions {
			sessions[i] = e.NewSession()
			sessions[i].SetUser(fmt.Sprintf("u%d", i))
		}
		work := func(s *Session) error {
			for rep := 0; rep < reps; rep++ {
				for k := 0; k < shapes; k++ {
					if _, err := s.Exec(stmt(k, rep)); err != nil {
						return fmt.Errorf("Exec(%q): %w", stmt(k, rep), err)
					}
				}
			}
			return nil
		}
		if concurrent {
			var wg sync.WaitGroup
			errs := make([]error, nSessions)
			for i, s := range sessions {
				wg.Add(1)
				go func(i int, s *Session) {
					defer wg.Done()
					errs[i] = work(s)
				}(i, s)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, s := range sessions {
				if err := work(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Event delivery is synchronous within a session, so each
		// user's subsequence is statement-ordered even under
		// concurrency; keying by user makes concurrent and serial runs
		// comparable. Within one statement the per-expression event
		// order follows Registry.All(), which is map-ordered — sort
		// each consecutive same-SQL run to canonicalize it.
		out := make([]string, 0, nSessions)
		for i := 0; i < nSessions; i++ {
			u := fmt.Sprintf("u%d", i)
			evs := events[u]
			sqlOf := func(line string) string { return strings.SplitN(line, "|", 4)[2] }
			for lo := 0; lo < len(evs); {
				hi := lo + 1
				for hi < len(evs) && sqlOf(evs[hi]) == sqlOf(evs[lo]) {
					hi++
				}
				sort.Strings(evs[lo:hi])
				lo = hi
			}
			out = append(out, u+":\n"+strings.Join(evs, "\n"))
		}
		return out
	}

	cached := newAuditedDB(t, false)
	before := cached.StatsSnapshot()
	got := run(cached, true)
	after := cached.StatsSnapshot()

	queries := after["queries"] - before["queries"]
	hits := (after["plan_cache_hits"] - before["plan_cache_hits"]) +
		(after["plan_cache_shared_hits"] - before["plan_cache_shared_hits"])
	if want := int64(nSessions * reps * shapes); queries != want {
		t.Fatalf("workload ran %d queries, want %d", queries, want)
	}
	rate := float64(hits) / float64(queries)
	t.Logf("workload: %d queries, %d cache hits (%.2f%%), %d shared entries",
		queries, hits, 100*rate, after["plan_cache_shared_entries"])
	// One cold plan per shape is the steady-state invariant; at full
	// scale that is a 99.9% hit rate (the >= 99% acceptance bound). In
	// short mode the same invariant yields a lower rate simply because
	// there are fewer repeats per shape. Sessions racing on a shape's
	// very first execution may each plan it (last store wins), so allow
	// one duplicate plan per shape of slack.
	if hits < queries-2*int64(shapes) {
		t.Fatalf("cache hits = %d of %d queries with %d shapes: shapes are being replanned",
			hits, queries, shapes)
	}
	if !testing.Short() && rate < 0.99 {
		t.Fatalf("cache hit rate = %.4f, want >= 0.99", rate)
	}

	ref := newAuditedDB(t, true)
	want := run(ref, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("audit trail diverged for session %d:\ncached:\n%.2000s\nreference:\n%.2000s",
				i, got[i], want[i])
		}
	}
}

// TestWarmExecAllocBudget gates what one warm audited point SELECT
// allocates through the default session's Exec, with the tracing
// brackets wired in and sampling off: normalize (0 allocations), an L1
// plan-cache hit, and a run of the entry's reused operator instance.
// What is left is the statement's output — the Result, the returned
// row and its slice, the ACCESSED state and the one ID it records (Bob
// is in Midtown). The gate is the measured count (10) plus 2.
func TestWarmExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	e := newAuditedDB(t, false)
	const q = "SELECT Name FROM Patients WHERE PatientID = 2"
	if _, err := e.Exec(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Exec(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Exec: %.1f allocs/op", allocs)
	if allocs > 12 {
		t.Fatalf("warm Exec allocates %.1f/op, want <= 12", allocs)
	}
}

// TestSampledWarmExecReusesInstance: a sampled statement runs the same
// reused operator instance as an unsampled one, so sampling every
// statement adds only the trace itself — spans, the retained trace and
// the clocks — to TestWarmExecAllocBudget's warm audited point SELECT,
// not a rebuilt operator tree. The trace still carries operator spans.
// The measured count is 16; the gate is 30, where a sampled statement
// that rebuilt its tree (71) fails.
func TestSampledWarmExecReusesInstance(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	e := newAuditedDB(t, false)
	e.SetTraceSampling(1)
	const q = "SELECT Name FROM Patients WHERE PatientID = 2"
	if _, err := e.Exec(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Exec(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sampled warm Exec: %.1f allocs/op", allocs)
	if allocs > 30 {
		t.Fatalf("sampled warm Exec allocates %.1f/op, want <= 30", allocs)
	}
	res, err := e.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	tr := e.TraceRing().Get(res.QID)
	if tr == nil {
		t.Fatal("the sampled statement's trace was not retained")
	}
	if len(spansNamed(tr, "Scan(Patients WHERE (PatientID = $1))")) != 1 {
		t.Fatalf("no operator span in the sampled trace:\n%s", strings.Join(tr.Render(), "\n"))
	}
}

// TestSharedCacheReplaceUnderLookup: lookup scans a variant list after
// dropping the shard lock, so store must never modify a published list
// in place (two sessions re-planning the same stale text). Run with
// -race.
func TestSharedCacheReplaceUnderLookup(t *testing.T) {
	var c sharedPlanCache
	canon := []byte("select ?")
	c.store(canon, &planEntry{version: 1})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.store(canon, &planEntry{version: int64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.lookup(canon, knobs{}, 1)
		}
	}()
	wg.Wait()
	if n := c.entries(); n != 1 {
		t.Fatalf("entries = %d, want 1 (replacement, not growth)", n)
	}
}
