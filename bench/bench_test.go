package main

import (
	"os"
	"testing"
)

// TestSmoke runs every workload for about a second with the oracle on,
// untraced and traced, so `go test ./...` keeps the harness compiling
// and correct. The three workloads that spawn auditdbd build it first
// and are skipped under -short.
func TestSmoke(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.results = t.TempDir() // leave bench/results alone
	t.Cleanup(func() {
		killAllDaemons()
		os.RemoveAll(e.runDir)
	})
	daemon := map[string]bool{"point_wire": true, "scan_analytic": true, "mixed_durable": true}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			if daemon[w.name] && testing.Short() {
				t.Skip("spawns auditdbd")
			}
			rec, err := runUntraced(e, w, defaultSeed, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			for _, g := range gates {
				if m, ok := rec.Metrics[g.name]; !ok || m.Value <= 0 {
					t.Errorf("untraced: metric %s = %v", g.name, m.Value)
				}
			}
			if len(rec.StreamHash) != 64 {
				t.Errorf("stream hash %q", rec.StreamHash)
			}
			tr, err := runTraced(e, w, defaultSeed, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d", tr.Correct, tr.Attempted, tr.Failed)
			}
			for _, lm := range layerMetrics {
				if _, ok := tr.Metrics[lm.name]; !ok {
					t.Errorf("traced: metric %s missing", lm.name)
				}
			}
			if tr.StreamHash != rec.StreamHash {
				t.Errorf("traced pass drew a different stream: %s vs %s", tr.StreamHash, rec.StreamHash)
			}
		})
	}
}
