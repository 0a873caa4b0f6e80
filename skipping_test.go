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
// audit-all on so every query carries a probe.
func buildSkipEngine(t *testing.T, workers int) *engine.Engine {
	t.Helper()
	eng := engine.New()
	if _, err := eng.Exec("CREATE TABLE People (ID INT PRIMARY KEY, Grp INT, Val INT)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < skipTestRows; i++ {
		if b.Len() == 0 {
			b.WriteString("INSERT INTO People VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", i, i/100, i%1000)
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
// and range deletes, zone-map-widening and NULL-ing updates), every
// query must return the same rows AND record the same ACCESSED id-set
// whether chunk skipping is on or off — serially and at workers=8.
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

				for phase := 0; phase < 4; phase++ {
					for op := 0; op < 150; op++ {
						var sql string
						switch rng.Intn(10) {
						case 0, 1, 2: // insert fresh rows (can grow a new chunk)
							sql = fmt.Sprintf("INSERT INTO People VALUES (%d, %d, %d)",
								nextID, rng.Intn(200), rng.Intn(1000))
							alive = append(alive, nextID)
							nextID++
						case 3, 4: // point delete
							if len(alive) == 0 {
								continue
							}
							i := rng.Intn(len(alive))
							sql = fmt.Sprintf("DELETE FROM People WHERE ID = %d", alive[i])
							alive = append(alive[:i], alive[i+1:]...)
						case 5: // range delete: chunk-emptying pressure
							lo := rng.Intn(skipTestRows)
							sql = fmt.Sprintf("DELETE FROM People WHERE ID BETWEEN %d AND %d", lo, lo+60)
							kept := alive[:0]
							for _, id := range alive {
								if id < lo || id > lo+60 {
									kept = append(kept, id)
								}
							}
							alive = kept
						case 6: // widening update: stretch the Val zone map
							if len(alive) == 0 {
								continue
							}
							sql = fmt.Sprintf("UPDATE People SET Val = %d WHERE ID = %d",
								100000+rng.Intn(1000), alive[rng.Intn(len(alive))])
						case 7: // NULL-ing update: exercise null counts
							if len(alive) == 0 {
								continue
							}
							sql = fmt.Sprintf("UPDATE People SET Val = NULL WHERE ID = %d",
								alive[rng.Intn(len(alive))])
						default: // ordinary update
							if len(alive) == 0 {
								continue
							}
							sql = fmt.Sprintf("UPDATE People SET Val = %d, Grp = %d WHERE ID = %d",
								rng.Intn(1000), rng.Intn(200), alive[rng.Intn(len(alive))])
						}
						if _, err := eng.Exec(sql); err != nil {
							t.Fatalf("seed=%d phase=%d: %s: %v", seed, phase, sql, err)
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
