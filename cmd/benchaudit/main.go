// Command benchaudit regenerates the paper's evaluation (§V) as
// printed tables: Figures 6–10 plus the §VI static-analysis study.
//
// Usage:
//
//	benchaudit [-sf 0.01] [-fig all|6|7|8|9|10|fga] [-mindur 200ms]
//
// Absolute timings differ from the paper's SQL Server testbed; the
// shapes (who wins, by what factor, where hcn diverges from offline)
// are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"auditdb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (0.01 = 1500 customers)")
	fig := flag.String("fig", "all", "which experiment: all, 6, 7, 8, 9, 10, fga")
	minDur := flag.Duration("mindur", 200*time.Millisecond, "minimum measurement window per timing point")
	flag.Parse()

	fmt.Printf("# SELECT triggers for data auditing — evaluation reproduction\n")
	fmt.Printf("# TPC-H SF %.3f, audit expression: customers in segment %q\n\n",
		*sf, "BUILDING")

	start := time.Now()
	w, err := experiments.NewWorkbench(*sf)
	if err != nil {
		log.Fatalf("workbench: %v", err)
	}
	counts := w.Data.Counts()
	fmt.Printf("loaded: %d customers, %d orders, %d lineitems (%.1fs); audited IDs: %d\n\n",
		counts["customer"], counts["orders"], counts["lineitem"],
		time.Since(start).Seconds(), w.Expr.Cardinality())

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("6") {
		runFig6(w)
	}
	if want("7") {
		runFig7(w, *minDur)
	}
	if want("8") {
		runFig8(w, *minDur)
	}
	if want("9") {
		runFig9(w)
	}
	if want("10") {
		runFig10(w, *minDur)
	}
	if want("fga") {
		runFGA(w)
	}
}

func table(header string, write func(tw *tabwriter.Writer)) {
	fmt.Println(header)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	write(tw)
	tw.Flush()
	fmt.Println()
}

var sweep = []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}

func runFig6(w *experiments.Workbench) {
	pts, err := w.Fig6(sweep, 0)
	if err != nil {
		log.Fatalf("fig 6: %v", err)
	}
	table("== Figure 6: micro-benchmark false positives (audit cardinality vs offline) ==",
		func(tw *tabwriter.Writer) {
			fmt.Fprintln(tw, "selectivity\toffline(accessedIDs)\tleaf-node(auditIDs)\thcn(auditIDs)\tleaf FP\thcn FP")
			for _, p := range pts {
				fmt.Fprintf(tw, "%.0f%%\t%d\t%d\t%d\t%d\t%d\n",
					p.Selectivity*100, p.Offline, p.Leaf, p.HCN, p.Leaf-p.Offline, p.HCN-p.Offline)
			}
		})
}

func runFig7(w *experiments.Workbench, minDur time.Duration) {
	pts, err := w.Fig7(sweep, 0, minDur)
	if err != nil {
		log.Fatalf("fig 7: %v", err)
	}
	table("== Figure 7: micro-benchmark overheads vs predicate selectivity ==",
		func(tw *tabwriter.Writer) {
			fmt.Fprintln(tw, "selectivity\tleaf overhead\thcn overhead\tleaf rows probed\thcn rows probed")
			for _, p := range pts {
				fmt.Fprintf(tw, "%.0f%%\t%+.1f%%\t%+.1f%%\t%d\t%d\n",
					p.Selectivity*100, p.LeafPct, p.HCNPct, p.LeafProbed, p.HCNProbed)
			}
		})
	fmt.Println("(rows probed = deterministic audit-operator work per execution;")
	fmt.Println(" wall-clock overheads are medians but remain noisy on shared hosts)")
	fmt.Println()
}

func runFig8(w *experiments.Workbench, minDur time.Duration) {
	nCust := len(w.Data.Customer)
	cards := []int{1}
	for c := 10; c < nCust; c *= 10 {
		cards = append(cards, c)
	}
	cards = append(cards, nCust)
	pts, err := w.Fig8(cards, minDur)
	if err != nil {
		log.Fatalf("fig 8: %v", err)
	}
	table("== Figure 8: hcn overhead vs audit-expression cardinality (40% selectivity) ==",
		func(tw *tabwriter.Writer) {
			fmt.Fprintln(tw, "audited customers\thcn overhead\trows probed")
			for _, p := range pts {
				fmt.Fprintf(tw, "%d\t%+.1f%%\t%d\n", p.Cardinality, p.HCNPct, p.Probed)
			}
		})
}

func runFig9(w *experiments.Workbench) {
	rows, err := w.Fig9()
	if err != nil {
		log.Fatalf("fig 9: %v", err)
	}
	table("== Figure 9: complex-query audit cardinalities (TPC-H customer workload) ==",
		func(tw *tabwriter.Writer) {
			fmt.Fprintln(tw, "query\toffline\thcn\tleaf-node\thcn FP\tnote")
			for _, r := range rows {
				note := ""
				if r.TopK && r.HCN > r.Offline {
					note = "top-k blocks pull-up"
				}
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\n",
					r.Query, r.Offline, r.HCN, r.Leaf, r.HCN-r.Offline, note)
			}
		})
}

func runFig10(w *experiments.Workbench, minDur time.Duration) {
	rows, err := w.Fig10(minDur)
	if err != nil {
		log.Fatalf("fig 10: %v", err)
	}
	table("== Figure 10: hcn overheads on complex queries ==",
		func(tw *tabwriter.Writer) {
			fmt.Fprintln(tw, "query\thcn overhead")
			for _, r := range rows {
				fmt.Fprintf(tw, "%s\t%+.1f%%\n", r.Query, r.HCNPct)
			}
		})
}

func runFGA(w *experiments.Workbench) {
	rows, err := w.FGAStudy()
	if err != nil {
		log.Fatalf("fga: %v", err)
	}
	table("== §VI / Example 6.1: static analysis (Oracle FGA style) vs audit operators ==",
		func(tw *tabwriter.Writer) {
			fmt.Fprintln(tw, "query\tstatic analysis\thcn auditIDs\toffline accessedIDs")
			for _, r := range rows {
				verdict := "flagged"
				if !r.Flagged {
					verdict = "cleared"
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", r.Query, verdict, r.HCN, r.Offline)
			}
		})
	fmt.Println(strings.TrimSpace(`
Static analysis reasons only about declared predicates: it can clear a
query only when its predicate provably contradicts the audit expression
(re-run with Q3 parameterized to a different market segment to see it
cleared). Audit operators report per-tuple accesses instead.`))
}
