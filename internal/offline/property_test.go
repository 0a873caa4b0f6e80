package offline_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/offline"
	"auditdb/internal/value"
)

// These property tests check the paper's two central claims on
// randomly generated queries against a randomly generated database:
//
//   - Claim 3.6 (no false negatives): for ANY query, offline
//     accessedIDs ⊆ hcn auditIDs.
//   - Theorem 3.7 (SJ exactness): for select-join queries, offline
//     accessedIDs == hcn auditIDs.
//
// "Offline" here is the literal auditor (NoSkip): the default one
// decides select-join shapes from an hcn-placed lineage run, and
// checking hcn against that would check it against itself.

// randomDB builds a Patients/Disease database with randomized contents.
func randomDB(t *testing.T, rng *rand.Rand) (*engine.Engine, *core.AuditExpression) {
	t.Helper()
	e := engine.New()
	if _, err := e.ExecScript(`
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10));
		CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
	`); err != nil {
		t.Fatal(err)
	}
	names := []string{"Alice", "Bob", "Carol", "Dave", "Erin", "Frank"}
	zips := []string{"48109", "98052", "10001"}
	diseases := []string{"cancer", "flu", "diabetes"}
	n := 8 + rng.Intn(12)
	var ins []string
	for i := 1; i <= n; i++ {
		ins = append(ins, fmt.Sprintf("(%d, '%s', %d, '%s')",
			i, names[rng.Intn(len(names))], 18+rng.Intn(60), zips[rng.Intn(len(zips))]))
	}
	if _, err := e.Exec("INSERT INTO Patients VALUES " + strings.Join(ins, ", ")); err != nil {
		t.Fatal(err)
	}
	ins = ins[:0]
	for i := 1; i <= n; i++ {
		for d := 0; d < rng.Intn(3); d++ {
			ins = append(ins, fmt.Sprintf("(%d, '%s')", i, diseases[rng.Intn(len(diseases))]))
		}
	}
	if len(ins) > 0 {
		if _, err := e.Exec("INSERT INTO Disease VALUES " + strings.Join(ins, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Exec(`CREATE AUDIT EXPRESSION Audit_All AS
		SELECT * FROM Patients WHERE PatientID > 0
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	ae, _ := e.Registry().Get("Audit_All")
	return e, ae
}

// randomPredicate emits a predicate over the joined schema.
func randomPredicate(rng *rand.Rand, joined bool) string {
	var preds []string
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("P.Age %s %d",
			[]string{"<", "<=", ">", ">=", "="}[rng.Intn(5)], 18+rng.Intn(60)))
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("P.Name = '%s'",
			[]string{"Alice", "Bob", "Carol"}[rng.Intn(3)]))
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("P.Zip IN ('%s', '%s')",
			[]string{"48109", "98052"}[rng.Intn(2)], "10001"))
	}
	if joined && rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("D.Disease = '%s'",
			[]string{"cancer", "flu", "diabetes"}[rng.Intn(3)]))
	}
	if len(preds) == 0 {
		return ""
	}
	return " AND " + strings.Join(preds, " AND ")
}

// randomSJQuery emits a select-join query (no aggregates, no top-k, no
// distinct, no subqueries): the Theorem 3.7 class.
func randomSJQuery(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		pred := randomPredicate(rng, false)
		if pred == "" {
			return "SELECT * FROM Patients P WHERE P.PatientID > 0"
		}
		return "SELECT * FROM Patients P WHERE P.PatientID > 0" + pred
	}
	return `SELECT P.PatientID, P.Name, D.Disease FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID` + randomPredicate(rng, true)
}

// randomComplexQuery adds an aggregate, top-k or distinct layer: the
// Claim 3.6 class where hcn may over- but never under-report.
func randomComplexQuery(rng *rand.Rand) string {
	base := randomSJQuery(rng)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf(`SELECT Zip, COUNT(*) FROM Patients P WHERE P.PatientID > 0 %s GROUP BY Zip`,
			randomPredicate(rng, false))
	case 1:
		return fmt.Sprintf(`SELECT P.Name FROM Patients P, Disease D
			WHERE P.PatientID = D.PatientID %s ORDER BY P.Age LIMIT %d`,
			randomPredicate(rng, true), 1+rng.Intn(4))
	case 2:
		return fmt.Sprintf(`SELECT DISTINCT P.Zip FROM Patients P WHERE P.PatientID > 0 %s`,
			randomPredicate(rng, false))
	default:
		return base
	}
}

func idSet(vals []value.Value) map[int64]bool {
	out := make(map[int64]bool, len(vals))
	for _, v := range vals {
		out[v.Int()] = true
	}
	return out
}

func TestPropertySJExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		e, ae := randomDB(t, rng)
		aud := offline.New(e.Catalog(), e.Store())
		aud.NoSkip = true
		for q := 0; q < 5; q++ {
			sql := randomSJQuery(rng)
			r, err := e.Query(sql)
			if err != nil {
				t.Fatalf("trial %d query %q: %v", trial, sql, err)
			}
			online := idSet(r.Accessed.IDs("Audit_All"))
			rep, err := aud.Audit(sql, ae)
			if err != nil {
				t.Fatalf("offline %q: %v", sql, err)
			}
			exact := idSet(rep.AccessedIDs)
			if len(online) != len(exact) {
				t.Fatalf("trial %d: SJ exactness violated for %q:\n hcn=%v\n offline=%v",
					trial, sql, online, exact)
			}
			for id := range exact {
				if !online[id] {
					t.Fatalf("trial %d: id %d accessed but not audited for %q", trial, id, sql)
				}
			}
		}
	}
}

func TestPropertyNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		e, ae := randomDB(t, rng)
		aud := offline.New(e.Catalog(), e.Store())
		aud.NoSkip = true
		for q := 0; q < 5; q++ {
			sql := randomComplexQuery(rng)
			r, err := e.Query(sql)
			if err != nil {
				t.Fatalf("trial %d query %q: %v", trial, sql, err)
			}
			online := idSet(r.Accessed.IDs("Audit_All"))
			rep, err := aud.Audit(sql, ae)
			if err != nil {
				t.Fatalf("offline %q: %v", sql, err)
			}
			for _, v := range rep.AccessedIDs {
				if !online[v.Int()] {
					t.Fatalf("trial %d: FALSE NEGATIVE — id %d accessed by %q but absent from hcn auditIDs %v",
						trial, v.Int(), sql, online)
				}
			}
		}
	}
}

func TestPropertyLeafSuperset(t *testing.T) {
	// Claim 3.5: leaf-node auditIDs ⊇ hcn auditIDs ⊇ offline.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		e, _ := randomDB(t, rng)
		for q := 0; q < 4; q++ {
			sql := randomComplexQuery(rng)
			e.SetHeuristic(core.HighestCommutativeNode)
			r1, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			hcn := idSet(r1.Accessed.IDs("Audit_All"))
			e.SetHeuristic(core.LeafNode)
			r2, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			leaf := idSet(r2.Accessed.IDs("Audit_All"))
			for id := range hcn {
				if !leaf[id] {
					t.Fatalf("trial %d: leaf missing id %d present under hcn for %q", trial, id, sql)
				}
			}
		}
	}
}

// ---- Fast-vs-literal differential harness ----
//
// The default auditor decides most verdicts from one lineage run; the
// NoSkip auditor applies Definition 2.3 literally. On every generated
// query the two must report the same accessedIDs. The generator leans
// on what makes a lineage rule wrong if it is wrong: small value
// domains (ties at a top-k boundary, value-identical replacement rows,
// duplicate DISTINCT values), zero-valued SUM contributions, COUNT(*)
// computed but not returned, and every shape the classifier must defer.

// diffDB builds a randomized Patients/Disease database whose audit
// expression covers only part of Patients.
func diffDB(t *testing.T, rng *rand.Rand) (*engine.Engine, *core.AuditExpression) {
	t.Helper()
	e := engine.New()
	if _, err := e.ExecScript(`
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10), Bal INT);
		CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30), Cost INT);
	`); err != nil {
		t.Fatal(err)
	}
	names := []string{"Alice", "Bob", "Carol", "Dave"}
	ages := []int{20, 30, 30, 40, 40, 40, 50}
	zips := []string{"48109", "98052", "10001"}
	bals := []int{0, 0, 0, 5, 10, -5}
	diseases := []string{"cancer", "flu", "diabetes"}
	costs := []int{0, 0, 10, 20}
	n := 6 + rng.Intn(10)
	var ins []string
	for i := 1; i <= n; i++ {
		ins = append(ins, fmt.Sprintf("(%d, '%s', %d, '%s', %d)", i, names[rng.Intn(len(names))],
			ages[rng.Intn(len(ages))], zips[rng.Intn(len(zips))], bals[rng.Intn(len(bals))]))
	}
	if _, err := e.Exec("INSERT INTO Patients VALUES " + strings.Join(ins, ", ")); err != nil {
		t.Fatal(err)
	}
	ins = ins[:0]
	for i := 1; i <= n+1; i++ { // n+1: one disease row matches no patient
		for d := rng.Intn(3); d > 0; d-- {
			ins = append(ins, fmt.Sprintf("(%d, '%s', %d)", i, diseases[rng.Intn(len(diseases))], costs[rng.Intn(len(costs))]))
		}
	}
	if len(ins) > 0 {
		if _, err := e.Exec("INSERT INTO Disease VALUES " + strings.Join(ins, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	def := []string{"PatientID > 0", "Age >= 30", "Zip = '48109'", "PatientID <= 4"}[rng.Intn(4)]
	if _, err := e.Exec(`CREATE AUDIT EXPRESSION Audit_Some AS SELECT * FROM Patients WHERE ` + def + `
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	ae, _ := e.Registry().Get("Audit_Some")
	return e, ae
}

func pick(rng *rand.Rand, options ...string) string { return options[rng.Intn(len(options))] }

// diffWhere emits " AND p1 AND p2 ..." over Patients (alias P) and,
// when joined, Disease (alias D); possibly empty.
func diffWhere(rng *rand.Rand, joined bool) string {
	var preds []string
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("P.Age %s %d", pick(rng, "<", "<=", ">", ">=", "=", "<>"), 20+10*rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, "P.Name = '"+pick(rng, "Alice", "Bob", "Carol")+"'")
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, "P.Zip IN ('"+pick(rng, "48109", "98052")+"', '10001')")
	}
	if rng.Intn(4) == 0 {
		preds = append(preds, "P.Bal "+pick(rng, "= 0", "> 0", "<> 0"))
	}
	if joined && rng.Intn(2) == 0 {
		preds = append(preds, "D.Disease = '"+pick(rng, "cancer", "flu", "diabetes")+"'")
	}
	if joined && rng.Intn(4) == 0 {
		preds = append(preds, "D.Cost "+pick(rng, "= 0", "> 0", ">= P.Bal"))
	}
	if len(preds) == 0 {
		return ""
	}
	return " AND " + strings.Join(preds, " AND ")
}

const (
	fromP  = " FROM Patients P WHERE P.PatientID > 0"
	fromPD = " FROM Patients P, Disease D WHERE P.PatientID = D.PatientID"
)

// diffFrom picks the single-table or the joined block.
func diffFrom(rng *rand.Rand) (from string, joined bool) {
	if rng.Intn(2) == 0 {
		return fromP + diffWhere(rng, false), false
	}
	return fromPD + diffWhere(rng, true), true
}

// diffQuery generates one query; kind cycles through the shapes so
// every one gets its share whatever the seed.
func diffQuery(rng *rand.Rand, kind int) string {
	from, joined := diffFrom(rng)
	cols := pick(rng, "*", "P.PatientID, P.Name", "P.Name", "P.Age", "P.Zip, P.Bal", "P.Name, P.Age + 1")
	if joined {
		cols = pick(rng, "*", "P.PatientID, D.Disease", "P.Name, D.Disease", "D.Disease", "P.Age, D.Cost")
	}
	order := pick(rng, "", " ORDER BY P.Age", " ORDER BY P.Age DESC, P.Name", " ORDER BY P.Bal", " ORDER BY P.Name DESC")
	group := pick(rng, "P.Zip", "P.Name", "P.Age")
	if joined && rng.Intn(2) == 0 {
		group = "D.Disease"
	}
	agg := pick(rng, "SUM(P.Bal)", "MIN(P.Age)", "MAX(P.Age)", "AVG(P.Bal)", "COUNT(P.Bal)", "SUM(P.Bal), MAX(P.Name)")
	if joined {
		agg = pick(rng, "SUM(D.Cost)", "MIN(D.Cost)", "MAX(P.Age)", "SUM(P.Bal + D.Cost)")
	}
	switch kind % 14 {
	case 0, 1: // select-join
		return "SELECT " + cols + from + order
	case 2: // aggregate, COUNT(*) returned
		if rng.Intn(4) == 0 {
			return "SELECT COUNT(*)" + pick(rng, "", ", "+agg) + from
		}
		return "SELECT " + group + ", COUNT(*)" + pick(rng, "", ", "+agg) + from + " GROUP BY " + group +
			pick(rng, "", " ORDER BY 2", " ORDER BY "+group+" DESC")
	case 3: // aggregate, no COUNT(*): zero contributions, non-extreme MIN/MAX
		if rng.Intn(4) == 0 {
			return "SELECT " + agg + from
		}
		return "SELECT " + group + ", " + agg + from + " GROUP BY " + group
	case 4: // COUNT(*) computed but not returned as a plain column
		return "SELECT " + group + pick(rng, ", "+agg+from+" GROUP BY "+group+" ORDER BY COUNT(*)",
			", COUNT(*) * 2"+from+" GROUP BY "+group,
			", COUNT(*) + "+agg+from+" GROUP BY "+group)
	case 5: // HAVING
		return "SELECT " + group + ", COUNT(*)" + from + " GROUP BY " + group +
			" HAVING " + pick(rng, "COUNT(*) >= 2", "COUNT(*) = 1", "MAX(P.Age) > 30", "SUM(P.Bal) > 0")
	case 6: // DISTINCT rows and DISTINCT aggregates
		if rng.Intn(3) == 0 {
			return "SELECT COUNT(DISTINCT P.Zip), COUNT(*)" + from
		}
		return "SELECT DISTINCT " + pick(rng, "P.Name", "P.Zip", "P.Age, P.Zip", "P.Bal") + from
	case 7, 8: // top-k: ties at the boundary, value-identical replacements
		topCols := pick(rng, "P.Age", "P.Name, P.Age", "P.PatientID, P.Age", "P.Zip", "P.Bal", "*")
		topOrder := pick(rng, " ORDER BY P.Age", " ORDER BY P.Age DESC", " ORDER BY P.Bal, P.Age", " ORDER BY P.Zip DESC", "")
		return fmt.Sprintf("SELECT %s%s%s LIMIT %d", topCols, from, topOrder, rng.Intn(6))
	case 9: // self-join on the sensitive table
		return "SELECT A.Name, B.Name FROM Patients A, Patients B WHERE A.Zip = B.Zip AND A.PatientID " +
			pick(rng, "<", "<>") + " B.PatientID" + pick(rng, "", " AND A.Age > 30", " AND B.Bal = 0")
	case 10: // subquery blocks
		return pick(rng,
			"SELECT P.Name FROM Patients P WHERE EXISTS (SELECT 1 FROM Disease D WHERE D.PatientID = P.PatientID AND D.Disease = 'flu')",
			"SELECT 1 FROM Disease D WHERE D.Cost > 0 AND EXISTS (SELECT * FROM Patients P WHERE P.PatientID = D.PatientID AND P.Age > 30)",
			"SELECT P.Name FROM Patients P WHERE P.PatientID IN (SELECT D.PatientID FROM Disease D WHERE D.Cost = 0)",
			"SELECT D.Disease FROM Disease D WHERE D.Cost >= (SELECT MAX(P.Bal) FROM Patients P WHERE P.Zip = '48109')",
			"SELECT P.Name FROM Patients P WHERE NOT EXISTS (SELECT 1 FROM Disease D WHERE D.PatientID = P.PatientID)")
	case 11: // outer joins, sensitive table on either side
		return pick(rng,
			"SELECT P.Name, D.Disease FROM Patients P LEFT JOIN Disease D ON P.PatientID = D.PatientID",
			"SELECT D.Disease FROM Disease D LEFT JOIN Patients P ON D.PatientID = P.PatientID AND P.Age > 30",
			"SELECT D.Disease, P.Name FROM Disease D LEFT JOIN Patients P ON D.PatientID = P.PatientID WHERE D.Cost = 0",
			"SELECT P.Zip, COUNT(*) FROM Patients P LEFT JOIN Disease D ON P.PatientID = D.PatientID GROUP BY P.Zip")
	case 12: // nested blocks: derived tables, LIMIT over GROUP BY, LIMIT over LIMIT
		inner := fmt.Sprintf("(SELECT P.PatientID, P.Name, P.Age, P.Bal FROM Patients P%s LIMIT %d) X",
			pick(rng, "", " ORDER BY P.Age", " ORDER BY P.Bal DESC", " ORDER BY P.Name, P.Age"), 1+rng.Intn(5))
		return pick(rng,
			// A tuple the inner cut admits and the outer one drops still
			// decides who else the inner cut admits.
			fmt.Sprintf("SELECT %s FROM %s%s LIMIT %d", pick(rng, "X.Name", "X.Age", "*"), inner,
				pick(rng, "", " ORDER BY X.Age DESC", " ORDER BY X.Bal", " ORDER BY X.Name DESC"), rng.Intn(4)),
			"SELECT COUNT(*), MAX(X.Age) FROM "+inner,
			"SELECT X.Age, COUNT(*) FROM "+inner+" GROUP BY X.Age",
			"SELECT A.Name FROM (SELECT * FROM Patients WHERE Age >= 30) A WHERE A.Bal = 0",
			"SELECT A.Zip, COUNT(*) FROM (SELECT * FROM Patients WHERE Age >= 30) A GROUP BY A.Zip",
			"SELECT N.Name FROM (SELECT Name, Age FROM Patients) N WHERE N.Age > 30",
			"SELECT COUNT(*) FROM (SELECT Name, Age FROM Patients) N",
			"SELECT X.Name FROM (SELECT P.PatientID, P.Name FROM Patients P ORDER BY P.Age LIMIT 3) X",
			"SELECT X.Name FROM (SELECT P.Name, P.Age FROM Patients P ORDER BY P.Age LIMIT 3) X WHERE X.Age > 20",
			"SELECT COUNT(*) FROM (SELECT P.Zip, COUNT(*) AS C FROM Patients P GROUP BY P.Zip) X",
			"SELECT P.Zip, COUNT(*) FROM Patients P GROUP BY P.Zip ORDER BY 2 DESC LIMIT 1",
			"SELECT X.Name, D.Disease FROM (SELECT P.PatientID, P.Name FROM Patients P ORDER BY P.Age LIMIT 4) X, Disease D WHERE X.PatientID = D.PatientID")
	default: // never reads the sensitive table
		return "SELECT D.Disease, COUNT(*) FROM Disease D GROUP BY D.Disease"
	}
}

func sameIDs(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if value.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestDifferentialFastVsLiteral: over 2,000 generated queries per seed
// the default auditor, serial and with an 8-wide deletion-test pool,
// reports exactly the literal auditor's accessedIDs, and its report
// accounting adds up. The same queries run online on the harness
// engine guard the engine's use of the lineage rule: a statement it
// counts placement_exact reports exactly the literal auditor's IDs,
// and every statement the auditor decides by lineage from at least one
// candidate counts exact.
func TestDifferentialFastVsLiteral(t *testing.T) {
	queries := 2000
	if testing.Short() {
		queries = 280
	}
	for _, seed := range []int64{20130408, 7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			differential(t, seed, queries)
		})
	}
}

func differential(t *testing.T, seed int64, queries int) {
	const perDB = 40
	rng := rand.New(rand.NewSource(seed))
	paths := map[string]int{}
	for q := 0; q < queries; {
		e, ae := diffDB(t, rng)
		e.SetAuditAll(true)
		literal := offline.New(e.Catalog(), e.Store())
		literal.NoSkip, literal.Parallelism = true, 1
		for i := 0; i < perDB && q < queries; i, q = i+1, q+1 {
			sql := diffQuery(rng, q)
			want, err := literal.Audit(sql, ae)
			if err != nil {
				t.Fatalf("literal %q: %v", sql, err)
			}
			before := e.StatsSnapshot()
			r, err := e.Query(sql)
			if err != nil {
				t.Fatalf("online %q: %v", sql, err)
			}
			exact := e.StatsSnapshot()["placement_exact"] > before["placement_exact"]
			if online := r.Accessed.IDs(ae.Meta.Name); exact && !sameIDs(online, want.AccessedIDs) {
				t.Fatalf("seed %d, %q counts placement_exact:\n online  %v\n literal %v", seed, sql, online, want.AccessedIDs)
			}
			for _, par := range []int{1, 8} {
				fast := offline.New(e.Catalog(), e.Store())
				fast.Parallelism = par
				got, err := fast.Audit(sql, ae)
				if err != nil {
					t.Fatalf("fast %q: %v", sql, err)
				}
				if !sameIDs(got.AccessedIDs, want.AccessedIDs) {
					t.Fatalf("seed %d, parallelism %d, %q:\n fast    %v (decided %d, deletion tests %d, deferred %v)\n literal %v",
						seed, par, sql, got.AccessedIDs, got.Decided, got.DeletionTests, got.DeferReasons, want.AccessedIDs)
				}
				deferred := 0
				for _, n := range got.DeferReasons {
					deferred += n
				}
				if got.Candidates != got.Decided+deferred || got.DeletionTests != deferred {
					t.Fatalf("%q: report does not add up: %+v", sql, got)
				}
				if got.Executions > want.Executions {
					t.Fatalf("%q: fast auditor ran %d executions, literal %d", sql, got.Executions, want.Executions)
				}
				if par == 1 {
					paths[got.Path()]++
					if got.Path() == "lineage" && got.Candidates > 0 && !exact {
						t.Fatalf("seed %d, %q: decided by lineage from %d candidates but counts placement_conservative",
							seed, sql, got.Candidates)
					}
				}
			}
		}
	}
	// The harness must exercise both paths, or it proves nothing.
	if paths["lineage"] < queries/4 || paths["deletion"] < queries/4 {
		t.Fatalf("verdict paths %v: generator no longer covers both", paths)
	}
}
