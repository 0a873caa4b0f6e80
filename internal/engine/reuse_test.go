package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"auditdb/internal/value"
)

// The reuse tests run the same statements on an engine whose plan-cache
// entries reuse their operator instances and on a disablePlanCache
// engine, where every statement builds and runs a fresh tree, and
// demand identical results, ACCESSED sets, engine counters and trigger
// logs. A reset that misses anything an execution left behind shows up
// as a difference.

const (
	reuseCustomers = 600
	reuseOrders    = 9000 // three storage chunks: the range shape skips some
	reuseSensitive = 60   // Audit_Cust covers c_custkey <= reuseSensitive
)

// newReuseDB builds a customer/orders database shaped like the
// benchmark's point workloads: primary keys, the o_custkey index, a
// range audit expression over customer and an ON ACCESS trigger that
// logs the reader, the statement text and the id. The data is the same
// on every call.
func newReuseDB(t *testing.T, uncached bool) *Engine {
	t.Helper()
	e := New()
	e.disablePlanCache = uncached
	if _, err := e.ExecScript(`
		CREATE TABLE customer (c_custkey INT PRIMARY KEY, c_name VARCHAR(25), c_address VARCHAR(40),
			c_nationkey INT, c_phone VARCHAR(15), c_acctbal DECIMAL(15,2), c_mktsegment VARCHAR(10));
		CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_custkey INT, o_orderstatus VARCHAR(1),
			o_totalprice DECIMAL(15,2), o_orderdate DATE);
	`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20130408))
	customers := make([]value.Row, reuseCustomers)
	for i := range customers {
		k := int64(i + 1)
		customers[i] = value.Row{
			value.NewInt(k), value.NewString(fmt.Sprintf("Customer#%04d", k)), value.NewString(fmt.Sprintf("addr %d", k*31%997)),
			value.NewInt(k % 25), value.NewString(fmt.Sprintf("10-%03d", k%1000)),
			value.NewFloat(float64(k*37%11000) - 1000), value.NewString([]string{"BUILDING", "MACHINERY", "HOUSEHOLD"}[k%3]),
		}
	}
	orders := make([]value.Row, reuseOrders)
	for i := range orders {
		orders[i] = value.Row{
			value.NewInt(int64(i + 1)), value.NewInt(1 + rng.Int63n(reuseCustomers)), value.NewString([]string{"O", "F", "P"}[rng.Intn(3)]),
			value.NewFloat(float64(rng.Intn(50000000)) / 100), value.NewDate(8000 + rng.Int63n(2500)),
		}
	}
	for name, rows := range map[string][]value.Row{"customer": customers, "orders": orders} {
		if err := e.LoadRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ExecScript(fmt.Sprintf(`
		CREATE INDEX idx_o_cust ON orders (o_custkey);
		CREATE AUDIT EXPRESSION Audit_Cust AS SELECT * FROM customer WHERE c_custkey <= %d
			FOR SENSITIVE TABLE customer, PARTITION BY c_custkey;
		CREATE TABLE AccessLog (UserID VARCHAR(30), SQL VARCHAR(600), CustKey INT);
		CREATE TRIGGER Log_Access ON ACCESS TO Audit_Cust AS
			INSERT INTO AccessLog SELECT userid(), sqltext(), c_custkey FROM ACCESSED;
	`, reuseSensitive)); err != nil {
		t.Fatal(err)
	}
	return e
}

// reusePair is one session on each engine, driven in lockstep.
type reusePair struct {
	t            *testing.T
	reuse, fresh *Session
}

func newReusePair(t *testing.T) *reusePair {
	p := &reusePair{t: t, reuse: newReuseDB(t, false).NewSession(), fresh: newReuseDB(t, true).NewSession()}
	p.both(func(s *Session) { s.SetUser("u1") })
	return p
}

// both applies a session change (a setting, a write) to both sides.
func (p *reusePair) both(f func(s *Session)) {
	f(p.reuse)
	f(p.fresh)
}

// write runs a statement whose result is not compared (DML, DDL) on
// both sides.
func (p *reusePair) write(sql string) {
	p.t.Helper()
	for _, s := range []*Session{p.reuse, p.fresh} {
		if _, err := s.Exec(sql); err != nil {
			p.t.Fatalf("%s: %v", sql, err)
		}
	}
}

// reuseCounters are the per-statement engine counters the signature
// covers: they tell a scan that restarted or skipped differently apart
// even when the rows agree.
var reuseCounters = []string{"rows_scanned", "chunks_scanned", "chunks_skipped_filter", "chunks_skipped_audit", "pred_interpreted_rows", "triggers_fired"}

// sig runs sql on s and renders the result, its ACCESSED state and the
// engine counters it moved (or the error) as one string.
func sig(s *Session, sql string) string {
	before := s.Engine().StatsSnapshot()
	r, err := s.Exec(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	after := s.Engine().StatsSnapshot()
	var b strings.Builder
	b.WriteString(resultSig(r))
	for _, k := range reuseCounters {
		fmt.Fprintf(&b, "%s=%d\n", k, after[k]-before[k])
	}
	return b.String()
}

// exec runs sql on both sides, fails on any difference, and returns the
// signature.
func (p *reusePair) exec(sql string) string {
	p.t.Helper()
	got, want := sig(p.reuse, sql), sig(p.fresh, sql)
	if got != want {
		p.t.Fatalf("%s\nreused instance:\n%s\nfresh tree:\n%s", sql, got, want)
	}
	return got
}

// log returns the AccessLog rows of both sides, sorted, failing if they
// differ. (Sorted because one statement firing two expressions fires
// them in registry map order.)
func (p *reusePair) log() [][]string {
	p.t.Helper()
	read := func(s *Session) [][]string {
		r, err := s.Exec("SELECT UserID, SQL, CustKey FROM AccessLog")
		if err != nil {
			p.t.Fatal(err)
		}
		out := make([][]string, len(r.Rows))
		for i, row := range r.Rows {
			out[i] = []string{row[0].Str(), row[1].Str(), row[2].String()}
		}
		sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
		return out
	}
	got, want := read(p.reuse), read(p.fresh)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		p.t.Fatalf("trigger logs differ\nreused:\n%v\nfresh:\n%v", got, want)
	}
	return got
}

// reuseShapes are the benchmark's eight hot point shapes (bench/gen.go
// hotTemplates) plus shapes that exercise the operators they do not: a
// heap range scan with chunk pruning, DISTINCT, GROUP BY, a LEFT JOIN,
// and a hash join whose build keys change from run to run while its
// probe side stays wide (a stale build key would match). c is a
// customer key, o an order key, lo..hi an order-key range.
var reuseShapes = []func(c, bal, o, lo, hi int64) string{
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = %d", c)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT c_custkey, c_name, c_address, c_phone FROM customer WHERE c_custkey = %d AND c_nationkey >= 0", c)
	},
	func(c, bal, _, _, _ int64) string {
		return fmt.Sprintf("SELECT c_custkey, c_mktsegment FROM customer WHERE c_custkey = %d AND c_acctbal > %d", c, bal)
	},
	func(_, _, o, _, _ int64) string {
		return fmt.Sprintf("SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", o)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT o_orderkey, o_orderstatus FROM orders WHERE o_custkey = %d", c)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_custkey = %d", c)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT c_name, o_orderkey, o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_custkey = %d AND o_custkey = %d", c, c)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = %d ORDER BY o_totalprice DESC LIMIT 3", c)
	},
	func(_, _, _, lo, hi int64) string {
		return fmt.Sprintf("SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey BETWEEN %d AND %d", lo, hi)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT DISTINCT o_orderstatus FROM orders WHERE o_custkey = %d", c)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT o_orderstatus, COUNT(*) FROM orders WHERE o_custkey = %d GROUP BY o_orderstatus", c)
	},
	func(c, _, _, _, _ int64) string {
		return fmt.Sprintf("SELECT c_custkey, o_orderkey FROM customer LEFT JOIN orders ON c_custkey = o_custkey AND o_totalprice > 400000 WHERE c_custkey = %d", c)
	},
	func(c, _, _, lo, hi int64) string {
		return fmt.Sprintf("SELECT c_custkey, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND o_orderkey BETWEEN %d AND %d AND c_custkey > %d", lo, hi, c%50)
	},
}

// TestInstanceReuseHotShapes draws the shapes with random bindings, a
// quarter of the customer keys from the audited range as the benchmark
// does, and demands every execution on reused instances equal a fresh
// tree's, and the two trigger logs equal.
func TestInstanceReuseHotShapes(t *testing.T) {
	p := newReusePair(t)
	rng := rand.New(rand.NewSource(1))
	n := 1200
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		c := reuseSensitive + 1 + rng.Int63n(reuseCustomers-reuseSensitive)
		if rng.Intn(4) == 0 {
			c = 1 + rng.Int63n(reuseSensitive)
		}
		lo := 1 + rng.Int63n(reuseOrders)
		hi := lo + rng.Int63n(300)
		sql := reuseShapes[rng.Intn(len(reuseShapes))](c, rng.Int63n(11000)-1000, 1+rng.Int63n(reuseOrders), lo, hi)
		p.exec(sql)
	}
	if len(p.log()) == 0 {
		t.Fatal("no statement fired the trigger; the sensitive draws are missing")
	}
	if hits := p.reuse.Engine().StatsSnapshot()["plan_cache_hits"]; hits < int64(n)/2 {
		t.Fatalf("%d plan-cache hits in %d statements: the instances are not being reused", hits, n)
	}
}

// TestInstanceReuseInterleavings interleaves executions of one cached
// shape with the changes a reset has to pick up.
func TestInstanceReuseInterleavings(t *testing.T) {
	const sensitiveRead = "SELECT c_name FROM customer WHERE c_custkey = 7"

	t.Run("same sensitive id twice", func(t *testing.T) {
		p := newReusePair(t)
		for i := 0; i < 2; i++ {
			if s := p.exec(sensitiveRead); !strings.Contains(s, "triggers_fired=1\n") {
				t.Fatalf("execution %d did not fire:\n%s", i, s)
			}
		}
		if n := len(p.log()); n != 2 {
			t.Fatalf("AccessLog has %d rows, want 2", n)
		}
	})

	t.Run("SET skipping flipped", func(t *testing.T) {
		p := newReusePair(t)
		const q = "SELECT o_orderkey FROM orders WHERE o_orderkey BETWEEN 100 AND 200"
		for _, on := range []bool{true, false, true, false} {
			p.both(func(s *Session) { s.SetSkipping(on) })
			s := p.exec(q)
			if skipped := !strings.Contains(s, "chunks_skipped_filter=0\n"); skipped != on {
				t.Fatalf("skipping %v: chunks skipped = %v\n%s", on, skipped, s)
			}
		}
	})

	t.Run("SET user", func(t *testing.T) {
		p := newReusePair(t)
		for _, u := range []string{"alice", "bob"} {
			p.both(func(s *Session) { s.SetUser(u) })
			p.exec(sensitiveRead)
		}
		l := p.log()
		if len(l) != 2 || l[0][0] != "alice" || l[1][0] != "bob" {
			t.Fatalf("AccessLog = %v, want one read by alice, then one by bob", l)
		}
	})

	t.Run("uncorrelated IN subquery with DML between", func(t *testing.T) {
		p := newReusePair(t)
		const q = "SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9990) ORDER BY o_orderkey"
		before := p.exec(q)
		p.write("UPDATE customer SET c_acctbal = 9995 WHERE c_custkey = 300")
		if after := p.exec(q); after == before {
			t.Fatal("the UPDATE did not change the subquery's result; fixture broken")
		}
	})

	t.Run("DDL between", func(t *testing.T) {
		p := newReusePair(t)
		const q = "SELECT c_custkey, c_name FROM customer WHERE c_nationkey = 3 AND c_custkey < 200"
		p.exec(q)
		p.write("CREATE INDEX idx_c_nation ON customer (c_nationkey)")
		p.exec(q)
		p.write(`CREATE AUDIT EXPRESSION Audit_Nation AS SELECT * FROM customer WHERE c_nationkey = 3
			FOR SENSITIVE TABLE customer, PARTITION BY c_custkey`)
		p.write("CREATE TRIGGER Log_Nation ON ACCESS TO Audit_Nation AS INSERT INTO AccessLog SELECT userid(), sqltext(), c_custkey FROM ACCESSED")
		if s := p.exec(q); !strings.Contains(s, "Audit_Nation=") {
			t.Fatalf("the new audit expression is not instrumented:\n%s", s)
		}
		p.write("DROP INDEX idx_c_nation")
		p.exec(q)
		p.log()
	})

	t.Run("INSERTs flip the hash join's build side", func(t *testing.T) {
		p := newReusePair(t)
		p.write("CREATE TABLE vip (v_custkey INT, v_tag VARCHAR(10))")
		p.write("INSERT INTO vip VALUES (3, 'gold'), (7, 'gold'), (450, 'silver'), (NULL, 'none')")
		const q = "SELECT v_tag, c_custkey, c_name FROM vip, customer WHERE v_custkey = c_custkey"
		buildsLeft := func() bool {
			text, err := p.reuse.Engine().ExplainAnalyze(q)
			if err != nil {
				t.Fatal(err)
			}
			return strings.Contains(text, "build=left")
		}
		// vip is the smaller input, so its join builds vip; once the
		// INSERT makes vip the larger one, the same reused instance
		// builds customer.
		hits := func() int64 { return p.reuse.Engine().StatsSnapshot()["plan_cache_hits"] }
		before := hits()
		for _, left := range []bool{true, false} {
			if got := buildsLeft(); got != left {
				t.Fatalf("built left = %v, want %v", got, left)
			}
			p.exec(q)
			p.exec(q)
			p.write("INSERT INTO vip SELECT c_custkey, 'all' FROM customer WHERE c_custkey <= 599")
		}
		if hits()-before < 3 {
			t.Fatalf("%d plan-cache hits: the instance was not reused across the flip", hits()-before)
		}
		p.log()
	})

	t.Run("error then good", func(t *testing.T) {
		p := newReusePair(t)
		for _, q := range []string{
			"SELECT c_custkey FROM customer WHERE c_custkey < 400 AND 100 / (c_custkey - %d) <> 7",
			"SELECT o_custkey, COUNT(*) FROM orders WHERE 10 / (o_orderkey - %d) <> 3 GROUP BY o_custkey",
			"SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND 10 / (o_orderkey - %d) <> 3 AND c_custkey < 100",
		} {
			bad, good := fmt.Sprintf(q, 250), fmt.Sprintf(q, 100000)
			if s := p.exec(bad); !strings.HasPrefix(s, "error: ") {
				t.Fatalf("%s did not fail:\n%.300s", bad, s)
			}
			p.exec(good)
			p.exec(bad)
			p.exec(good)
		}
	})
}
