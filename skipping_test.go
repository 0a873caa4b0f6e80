package auditdb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"auditdb/internal/engine"
	"auditdb/internal/value"
)

// skipTestRows spans several storage chunks (ChunkRows = 4096) so the
// pruning paths — zone maps, sketches, chunk-emptying deletes — all
// have room to act.
const skipTestRows = 10240

const skipWatchExpr = "Audit_Watch"

// buildSkipEngine loads a multi-chunk table, registers an audit
// expression whose watch set is concentrated in one chunk, and turns
// audit-all on so every query carries a probe. Grp carries a secondary
// index; F, D and S give the compiled scan predicate FLOAT, DATE and
// STRING terms to claim.
func buildSkipEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	eng := engine.New()
	if _, err := eng.ExecScript(`
		CREATE TABLE People (ID INT PRIMARY KEY, Grp INT, Val INT, F FLOAT, D DATE, S VARCHAR(8));
		CREATE INDEX people_grp ON People (Grp);`); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < skipTestRows; i++ {
		if b.Len() == 0 {
			b.WriteString("INSERT INTO People VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %s)", i, i/100, i%1000, skipTyped(i))
		if (i+1)%1024 == 0 || i == skipTestRows-1 {
			if _, err := eng.Exec(b.String()); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	_, err := eng.Exec(`CREATE AUDIT EXPRESSION Audit_Watch AS
		SELECT * FROM People WHERE ID BETWEEN 8200 AND 8260
		FOR SENSITIVE TABLE People, PARTITION BY ID`)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetAuditAll(true)
	if workers > 1 {
		eng.SetDefaultWorkers(workers)
		eng.SetParallelMinRows(1)
	}
	return eng
}

// skipTyped renders row i's F, D and S values.
func skipTyped(i int) string {
	return fmt.Sprintf("%d.5, DATE '1995-%02d-%02d', 's%d'", i%1000, 1+i%12, 1+i%28, i%50)
}

func engAccessedKeys(r *engine.Result, expr string) []string {
	var out []string
	if r.Accessed != nil {
		for _, v := range r.Accessed.IDs(expr) {
			out = append(out, value.KeyOf(v))
		}
	}
	return out
}

// skipEquivalenceQueries mixes selective filters (zone-map pruning),
// chunk-boundary ranges, full scans, watch-set hits, aggregates, and
// null predicates.
var skipEquivalenceQueries = []string{
	"SELECT * FROM People WHERE Val BETWEEN 100 AND 120",
	"SELECT * FROM People WHERE ID BETWEEN 4000 AND 4200",
	"SELECT * FROM People WHERE ID = 8230",
	"SELECT COUNT(*), MIN(Val), MAX(Val) FROM People",
	"SELECT Grp, COUNT(*) FROM People WHERE Val < 50 GROUP BY Grp",
	"SELECT * FROM People WHERE Val IS NULL",
	"SELECT * FROM People WHERE ID > 9000 AND Val BETWEEN 0 AND 5",
}

// TestSkippingEquivalenceRandomDML is the property test for the data
// skipping layer: under randomized DML interleavings (inserts, point
// and range deletes, zone-map-widening and NULL-ing updates, writes
// whose WHERE holds subqueries or typed terms or goes through the
// secondary index), every query must return the same rows AND record
// the same ACCESSED id-set whether chunk skipping is on or off —
// serially and at workers=8. The writes alternate between the two
// sessions, and each UPDATE or DELETE must affect exactly the rows a
// SELECT COUNT(*) with its WHERE, run just before on the other session,
// counts — and the right ones: no row a DELETE's WHERE matches is left,
// and the rows a marking UPDATE wrote its marker into are exactly the
// rows its WHERE matches.
func TestSkippingEquivalenceRandomDML(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eng := buildSkipEngine(t, workers)
				skipOn := eng.NewSession()
				defer skipOn.Close()
				skipOff := eng.NewSession()
				defer skipOff.Close()
				skipOff.SetSkipping(false)
				if !skipOn.SkippingOn() || skipOff.SkippingOn() {
					t.Fatal("skipping knob: want default on, explicit off")
				}

				alive := make([]int, skipTestRows)
				for i := range alive {
					alive[i] = i
				}
				nextID := 20000
				marks := 0
				mark := func() string { marks++; return fmt.Sprintf("m%d", marks) }
				pick := func() int { return alive[rng.Intn(len(alive))] }
				// reread refreshes alive after a write that deleted rows
				// by something other than their ID.
				reread := func() {
					r, err := skipOn.Query("SELECT ID FROM People")
					if err != nil {
						t.Fatal(err)
					}
					alive = alive[:0]
					for _, row := range r.Rows {
						alive = append(alive, int(row[0].Int()))
					}
				}

				for phase := 0; phase < 4; phase++ {
					for op := 0; op < 150; op++ {
						// Each write is a statement and its WHERE (an INSERT
						// has none); a marking UPDATE also sets S to mark.
						type write struct{ stmt, where, mark string }
						var writes []write
						kind := rng.Intn(15)
						if kind > 2 && len(alive) == 0 {
							continue
						}
						switch kind {
						case 0, 1, 2: // insert fresh rows (can grow a new chunk)
							writes = []write{{fmt.Sprintf("INSERT INTO People VALUES (%d, %d, %d, %s)",
								nextID, rng.Intn(200), rng.Intn(1000), skipTyped(nextID)), "", ""}}
							alive = append(alive, nextID)
							nextID++
						case 3, 4: // point delete
							i := rng.Intn(len(alive))
							writes = []write{{"DELETE FROM People", fmt.Sprintf("ID = %d", alive[i]), ""}}
							alive = append(alive[:i], alive[i+1:]...)
						case 5: // range delete: chunk-emptying pressure
							lo := rng.Intn(skipTestRows)
							writes = []write{{"DELETE FROM People", fmt.Sprintf("ID BETWEEN %d AND %d", lo, lo+60), ""}}
							kept := alive[:0]
							for _, id := range alive {
								if id < lo || id > lo+60 {
									kept = append(kept, id)
								}
							}
							alive = kept
						case 6: // widening update: stretch the Val zone map
							writes = []write{{fmt.Sprintf("UPDATE People SET Val = %d", 100000+rng.Intn(1000)),
								fmt.Sprintf("ID = %d", pick()), ""}}
						case 7: // NULL-ing update: exercise null counts
							writes = []write{{"UPDATE People SET Val = NULL", fmt.Sprintf("ID = %d", pick()), ""}}
						case 8, 9: // ordinary update, moving the indexed Grp
							writes = []write{{fmt.Sprintf("UPDATE People SET Val = %d, Grp = %d", rng.Intn(1000), rng.Intn(200)),
								fmt.Sprintf("ID = %d", pick()), ""}}
						case 10: // range delete on the zone-mapped Val
							lo := rng.Intn(1000)
							writes = []write{{"DELETE FROM People", fmt.Sprintf("Val BETWEEN %d AND %d", lo, lo+2), ""}}
						case 11: // IN (subquery)
							m := mark()
							writes = []write{{fmt.Sprintf("UPDATE People SET Val = Val + 1, S = '%s'", m),
								fmt.Sprintf("Grp IN (SELECT Grp FROM People WHERE ID = %d)", pick()), m}}
						case 12: // correlated EXISTS
							m := mark()
							writes = []write{{fmt.Sprintf("UPDATE People SET S = '%s'", m),
								fmt.Sprintf("Val < %d AND EXISTS (SELECT 1 FROM People q WHERE q.ID = People.Grp AND q.Val < 50)", rng.Intn(40)), m}}
						case 13: // FLOAT, DATE and STRING terms
							n := rng.Intn(1000)
							where := []string{
								fmt.Sprintf("F > %d.25 AND F < %d.75", n, n+3),
								fmt.Sprintf("D = DATE '1995-%02d-%02d' AND Val < %d", 1+rng.Intn(12), 1+rng.Intn(28), n),
								fmt.Sprintf("S = 's%d' AND F >= %d.0", rng.Intn(50), n),
							}[rng.Intn(3)]
							writes = []write{{"DELETE FROM People", where, ""}}
						default: // move a row's indexed Grp, then update through the index
							g, m := 200+rng.Intn(20), mark()
							writes = []write{
								{fmt.Sprintf("UPDATE People SET Grp = %d", g), fmt.Sprintf("ID = %d", pick()), ""},
								{fmt.Sprintf("UPDATE People SET Val = %d, S = '%s'", rng.Intn(1000), m), fmt.Sprintf("Grp = %d", g), m},
							}
						}
						for i, w := range writes {
							// Alternate the writing session; count on the other.
							writer, counter := skipOn, skipOff
							if (op+i)%2 == 1 {
								writer, counter = skipOff, skipOn
							}
							if w.where == "" {
								if _, err := writer.Exec(w.stmt); err != nil {
									t.Fatalf("seed=%d phase=%d: %s: %v", seed, phase, w.stmt, err)
								}
								continue
							}
							sql := w.stmt + " WHERE " + w.where
							count := func(where string) int {
								t.Helper()
								r, err := counter.Query("SELECT COUNT(*) FROM People WHERE " + where)
								if err != nil {
									t.Fatalf("seed=%d phase=%d: count for %s: %v", seed, phase, sql, err)
								}
								return int(r.Rows[0][0].Int())
							}
							want := count(w.where)
							r, err := writer.Exec(sql)
							if err != nil {
								t.Fatalf("seed=%d phase=%d: %s: %v", seed, phase, sql, err)
							}
							if r.RowsAffected != want {
								t.Fatalf("seed=%d phase=%d: %s affected %d rows, COUNT(*) with its WHERE said %d",
									seed, phase, sql, r.RowsAffected, want)
							}
							if strings.HasPrefix(sql, "DELETE") {
								if n := count(w.where); n != 0 {
									t.Fatalf("seed=%d phase=%d: %s left %d matching rows", seed, phase, sql, n)
								}
							}
							if w.mark != "" {
								marked := fmt.Sprintf("S = '%s'", w.mark)
								if n, m := count(marked), count(marked+" AND "+w.where); n != want || m != want {
									t.Fatalf("seed=%d phase=%d: %s marked %d rows, %d of them matching, want %d",
										seed, phase, sql, n, m, want)
								}
							}
						}
						if kind == 10 || kind == 13 {
							reread()
						}
					}

					for _, q := range skipEquivalenceQueries {
						ron, err := skipOn.Query(q)
						if err != nil {
							t.Fatalf("seed=%d phase=%d skipping=on %q: %v", seed, phase, q, err)
						}
						roff, err := skipOff.Query(q)
						if err != nil {
							t.Fatalf("seed=%d phase=%d skipping=off %q: %v", seed, phase, q, err)
						}
						if !sameStrings(canonical(ron.Rows), canonical(roff.Rows)) {
							t.Fatalf("seed=%d phase=%d %q: rows diverge with skipping on (%d) vs off (%d)",
								seed, phase, q, len(ron.Rows), len(roff.Rows))
						}
						if on, off := engAccessedKeys(ron, skipWatchExpr), engAccessedKeys(roff, skipWatchExpr); !sameStrings(on, off) {
							t.Fatalf("seed=%d phase=%d %q: ACCESSED diverges with skipping on (%d ids) vs off (%d ids)",
								seed, phase, q, len(on), len(off))
						}
					}
				}
			}
		})
	}
}

// TestSkippingActuallySkips guards against the layer silently
// disabling itself: a selective zone-map predicate on a freshly loaded
// multi-chunk table must report skipped chunks in EXPLAIN ANALYZE.
func TestSkippingActuallySkips(t *testing.T) {
	eng := buildSkipEngine(t, 1)
	out, err := eng.ExplainAnalyze("SELECT * FROM People WHERE ID BETWEEN 0 AND 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "chunks=2/1") {
		t.Fatalf("EXPLAIN ANALYZE should show 2 skipped / 1 scanned chunks, got:\n%s", out)
	}
	// The fused path must elide audit probes for chunks the sensitive-ID
	// sketch refutes: a full scan under a watch set concentrated in one
	// chunk skips the probe work for the other chunks (reason=audit).
	if _, err := eng.Query("SELECT * FROM People WHERE Val >= 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("SELECT * FROM People WHERE ID BETWEEN 0 AND 10"); err != nil {
		t.Fatal(err)
	}
	snap := eng.StatsSnapshot()
	if snap["chunks_skipped_audit"] == 0 {
		t.Fatalf("chunks_skipped_audit = 0 after a sparse-watch full scan; stats = %v", snap)
	}
	if snap["chunks_skipped_filter"] == 0 {
		t.Fatalf("chunks_skipped_filter = 0 after a selective range scan; stats = %v", snap)
	}

	// With skipping off the same queries scan every chunk and probe
	// every row, serially and under Gather: worker contexts used to drop
	// NoSkip, so at workers = 4 the "off" session still elided probes by
	// sketch. Only with that fixed is TestSkippingEquivalenceRandomDML at
	// workers = 8 a comparison against the literal baseline rather than
	// skipping against skipping.
	for _, workers := range []int{1, 4} {
		eng := buildSkipEngine(t, workers)
		sess := eng.NewSession()
		defer sess.Close()
		sess.SetSkipping(false)
		before := eng.StatsSnapshot()
		if r, err := sess.Query("SELECT * FROM People WHERE ID BETWEEN 0 AND 10"); err != nil || len(r.Rows) != 11 {
			t.Fatalf("workers=%d: skip-off query = %d rows, err %v; want 11", workers, len(r.Rows), err)
		}
		if _, err := sess.Query("SELECT * FROM People WHERE Val >= 0"); err != nil {
			t.Fatal(err)
		}
		after := eng.StatsSnapshot()
		for _, c := range []string{"chunks_skipped_audit", "chunks_skipped_filter"} {
			if after[c] != before[c] {
				t.Errorf("workers=%d: skip-off session moved %s from %v to %v", workers, c, before[c], after[c])
			}
		}
	}
}
