package parser

import (
	"testing"

	"auditdb/internal/lexer"
)

// frontEndMix is the front-end query mix: the shapes the paper's
// workloads and the repo's demo/TPC-H suites actually issue — point
// lookups, audited joins, grouped aggregates, subqueries.
var frontEndMix = []string{
	`SELECT name, ssn FROM patients WHERE id = 42`,
	`SELECT p.name, v.vdate FROM patients p JOIN visits v ON p.id = v.patient_id WHERE v.cost > 500 AND p.state = 'CA' ORDER BY v.vdate DESC LIMIT 10`,
	`SELECT state, COUNT(*), SUM(cost) FROM patients p JOIN visits v ON p.id = v.patient_id GROUP BY state HAVING SUM(cost) > 1000`,
	`SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE cost BETWEEN 100 AND 200) AND NOT disease = 'flu'`,
	`SELECT l_returnflag, l_linestatus, SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`,
}

// TestScannerAllocGate is the front-end allocation regression gate:
// draining the scanner over the query mix must not allocate at all.
// CI fails on any regression here.
func TestScannerAllocGate(t *testing.T) {
	var sc lexer.Scanner
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range frontEndMix {
			sc.Init(q)
			for sc.Scan() != lexer.TokEOF {
			}
		}
	})
	if allocs > 1 {
		t.Fatalf("scanning the query mix allocates %.1f/op, want <= 1", allocs)
	}
}
