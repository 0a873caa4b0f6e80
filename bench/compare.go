package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// gate is one bounded end-to-end metric; BENCHMARK.json repeats these.
type gate struct {
	name   string
	higher bool    // true: higher is better
	bound  float64 // share of the base median by which it may worsen
}

// The bounds are set by what the reference sandbox can resolve: its
// memory system is shared with other tenants, and for half a minute at
// a time a memory-bound loop runs 10-20 % slower (an ALU-bound one does
// not). Run-to-run quartile spreads of 5 % on most workloads and
// 10-12 % on point_embedded are the floor; a bound must clear the
// spread or every comparison is unresolved.
var gates = []gate{
	{"throughput_ops_s", true, 0.20},
	{"lat_p50_us", false, 0.20},
	{"lat_p99_us", false, 0.25},
	{"setup_s", false, 0.25},
}

// verdict compares two samples of one metric on one workload. The
// ratio is b's median over a's (the base). A metric whose run-to-run
// quartile spread, on either side, is wider than its bound cannot
// resolve a change of that size: it is reported unresolved, never ok.
type verdict struct {
	medA, medB       float64
	spreadA, spreadB float64 // (q3-q1)/median
	ratio            float64
	word             string // ok / worse / unresolved
}

func judge(a, b []float64, g gate) verdict {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	v := verdict{medA: ma, medB: mb}
	if ma != 0 {
		v.spreadA = (q3a - q1a) / ma
		v.ratio = mb / ma
	}
	if mb != 0 {
		v.spreadB = (q3b - q1b) / mb
	}
	worsened := v.ratio - 1
	if g.higher {
		worsened = 1 - v.ratio
	}
	switch {
	case worsened > g.bound:
		v.word = "worse"
	case len(a) > 1 && v.spreadA > g.bound, len(b) > 1 && v.spreadB > g.bound:
		v.word = "unresolved"
	default:
		v.word = "ok"
	}
	return v
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// samples groups a file's untraced runs: workload -> metric -> values.
func samples(f *resultsFile) (map[string]map[string][]float64, []string) {
	out := map[string]map[string][]float64{}
	var order []string
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for k, m := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], m.Value)
		}
	}
	return out, order
}

// compareFiles prints one row per workload x end-to-end metric and
// returns the exit code: 1 if any row is worse, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, errA := readResults(pathA)
	fb, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	return compareResults(w, fa, fb)
}

func compareResults(w io.Writer, fa, fb *resultsFile) int {
	sa, order := samples(fa)
	sb, _ := samples(fb)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a (base)\tmedian b\tb/a\tspread a\tspread b\tbound\tverdict")
	code := 0
	for _, wl := range order {
		for _, g := range gates {
			a, b := sa[wl][g.name], sb[wl][g.name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.0f%%\tmissing\n", wl, g.name, g.bound*100)
				continue
			}
			v := judge(a, b, g)
			if v.word == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g (n=%d)\t%.4g (n=%d)\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl, g.name, v.medA, len(a), v.medB, len(b), v.ratio, v.spreadA*100, v.spreadB*100, g.bound*100, v.word)
		}
	}
	tw.Flush()
	return code
}
