// Offline: the paper's Figure 1 pipeline. SELECT triggers audit
// queries online and act as a *filter*: only queries that touched
// sensitive data (and only their recorded IDs) reach the expensive
// offline auditor, which verifies each access exactly under the
// tuple-deletion semantics of Definition 2.5.
//
// The demo runs a mixed workload, shows how many queries the trigger
// layer cleared outright, and then verifies the flagged ones offline —
// showing which verdicts one lineage run decided, which needed the
// tuple-deletion test and why, and how many query executions the
// filter saved.
//
// Run with: go run ./examples/offline
package main

import (
	"fmt"
	"log"

	"auditdb"
)

func main() {
	db := auditdb.Open()
	db.SetAuditAll(true)

	if _, err := db.ExecScript(`
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10));
		CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
		INSERT INTO Patients VALUES
			(1, 'Alice', 34, '48109'), (2, 'Bob', 21, '48109'),
			(3, 'Carol', 47, '98052'), (4, 'Dave', 29, '98052'), (5, 'Erin', 62, '10001');
		INSERT INTO Disease VALUES (1, 'cancer'), (2, 'flu'), (3, 'flu'), (4, 'diabetes'), (5, 'cancer');
		CREATE AUDIT EXPRESSION Audit_Cancer AS
			SELECT P.* FROM Patients P, Disease D
			WHERE P.PatientID = D.PatientID AND Disease = 'cancer'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
	`); err != nil {
		log.Fatal(err)
	}

	workload := []string{
		// Touches no sensitive rows: cleared online, never audited offline.
		"SELECT * FROM Patients WHERE Name = 'Bob'",
		"SELECT COUNT(*) FROM Disease WHERE Disease = 'flu'",
		"SELECT Name FROM Patients WHERE Age < 25",
		// Touch sensitive rows: flagged for offline verification.
		"SELECT * FROM Patients WHERE Zip = '10001'",
		"SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip HAVING COUNT(*) >= 2",
		"SELECT Name FROM Patients ORDER BY Age DESC LIMIT 1",
	}

	type flagged struct {
		sql string
		ids []auditdb.Value
	}
	var toVerify []flagged
	cleared := 0
	fmt.Println("online pass (SELECT triggers):")
	for _, q := range workload {
		r, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		ids := r.AccessedIDs("Audit_Cancer")
		if len(ids) == 0 {
			cleared++
			fmt.Printf("  cleared : %.55s\n", q)
			continue
		}
		toVerify = append(toVerify, flagged{sql: q, ids: ids})
		fmt.Printf("  FLAGGED : %.55s  auditIDs=%v\n", q, ids)
	}
	fmt.Printf("\n%d/%d queries cleared online — the offline system never sees them.\n\n",
		cleared, len(workload))

	fmt.Println("offline verification of flagged queries (Definition 2.5):")
	totalExecs := 0
	for _, f := range toVerify {
		rep, err := db.OfflineAudit(f.sql, "Audit_Cancer")
		if err != nil {
			log.Fatal(err)
		}
		totalExecs += rep.Executions
		verdict := "confirmed"
		if len(rep.AccessedIDs) < len(f.ids) {
			verdict = fmt.Sprintf("reduced to %v (online false positives cleared)", rep.AccessedIDs)
		}
		fmt.Printf("  %.55s\n    online=%v exact=%v -> %s\n", f.sql, f.ids, rep.AccessedIDs, verdict)
		fmt.Printf("    candidates=%d decided=%d deletion-tests=%d deferred=%v executions=%d rows-scanned=%d\n",
			rep.Candidates, rep.Decided, rep.DeletionTests, rep.DeferReasons, rep.Executions, rep.RowsScanned)
	}
	fmt.Printf("\noffline cost: %d query executions for %d flagged queries;\n",
		totalExecs, len(toVerify))
	fmt.Printf("without the online filter it would verify all %d queries against all sensitive tuples.\n",
		len(workload))
}
