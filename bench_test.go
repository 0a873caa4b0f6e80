package auditdb

// Ablation benchmarks for the design choices DESIGN.md discusses. Run
// with:
//
//	go test -run '^$' -bench Ablation -benchmem .
//
// The paper's figures (§V) are regenerated in full by
// `go run ./cmd/benchaudit -fig all`; end-to-end performance is
// measured by `bash bench/run.sh` (see bench/README.md).

import (
	"sync"
	"testing"

	"auditdb/internal/core"
	"auditdb/internal/experiments"
	"auditdb/internal/tpch"
)

// benchSF is deliberately modest so the ablations stay in seconds;
// cmd/benchaudit defaults to a larger database.
const benchSF = 0.004

var (
	wbOnce sync.Once
	wb     *experiments.Workbench
	wbErr  error
)

func bench(b *testing.B) *experiments.Workbench {
	b.Helper()
	wbOnce.Do(func() { wb, wbErr = experiments.NewWorkbench(benchSF) })
	if wbErr != nil {
		b.Fatal(wbErr)
	}
	return wb
}

// BenchmarkAblationProbeCost isolates the audit operator's per-row
// cost: the same scan with and without a pass-through probe over the
// full customer table (DESIGN.md ablation: hash-probe vs free flow).
func BenchmarkAblationProbeCost(b *testing.B) {
	w := bench(b)
	sql := "SELECT c_custkey FROM customer"
	plain, _, err := w.Engine.BuildQueryPlan(sql, false)
	if err != nil {
		b.Fatal(err)
	}
	instrBase, _, err := w.Engine.BuildQueryPlan(sql, false)
	if err != nil {
		b.Fatal(err)
	}
	acc := core.NewAccessed()
	instr := core.Instrument(instrBase, w.Expr, &core.Probe{Expr: w.Expr, Acc: acc}, core.HighestCommutativeNode)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Engine.DrainPlan(plain, sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Engine.DrainPlan(instr, sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOfflineAuditorCost measures what the paper's
// architecture (Figure 1) saves: the full offline audit of one micro
// query versus its online (hcn-instrumented) execution.
func BenchmarkAblationOfflineAuditorCost(b *testing.B) {
	w := bench(b)
	sql := tpch.MicroJoinQuery(0, experiments.CutoffForSelectivity(0.2))
	b.Run("online-hcn", func(b *testing.B) {
		w.Engine.SetHeuristic(core.HighestCommutativeNode)
		for i := 0; i < b.N; i++ {
			if _, err := w.Engine.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("offline-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Auditor.Audit(sql, w.Expr); err != nil {
				b.Fatal(err)
			}
		}
	})
}
