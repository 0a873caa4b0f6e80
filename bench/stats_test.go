package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {90, 90}, {1, 1}, {99.9, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

func summarizeAll(windows [][]int64) []windowStat {
	out := make([]windowStat, len(windows))
	for i, w := range windows {
		out[i] = summarizeWindow(w)
	}
	return out
}

func TestTailPercentileFallback(t *testing.T) {
	if p := tailPercentile(1000); p != 99 {
		t.Errorf("n=1000: p%v, want p99", p)
	}
	// 200 samples: p95 leaves exactly ten beyond it.
	if p := tailPercentile(200); math.Abs(p-95) > 1e-9 {
		t.Errorf("n=200: p%v, want p95", p)
	}
	if p := tailPercentile(12); p != 50 {
		t.Errorf("n=12: p%v, want the p50 floor", p)
	}
}

// One round with a fat tail (a GC pause, an fsync hiccup) must not
// move the run's p99: the run reports the median of the rounds' p99s.
func TestRoundP99IgnoresOneHiccup(t *testing.T) {
	windows := make([][]int64, rounds)
	for w := range windows {
		for i := 0; i < 2000; i++ {
			windows[w] = append(windows[w], int64(1000+i)) // 1.000..2.999 us
		}
	}
	calm := summarizeLatency(summarizeAll(windows))
	for i := 0; i < 100; i++ { // 5 % of one window stalls for 50 ms
		windows[2][i] = 50_000_000
	}
	hit := summarizeLatency(summarizeAll(windows))
	if hit.p99us != calm.p99us {
		t.Errorf("p99 moved from %v to %v us because of one window", calm.p99us, hit.p99us)
	}
	if hit.samples != rounds*2000 || hit.minWindow != 2000 || hit.tailPct != 99 {
		t.Errorf("summary bookkeeping: %+v", hit)
	}
}

func TestRoundFallsBackBelow1000Samples(t *testing.T) {
	windows := make([][]int64, rounds)
	for w := range windows {
		for i := 0; i < 200; i++ {
			windows[w] = append(windows[w], int64(i+1)*1000)
		}
	}
	s := summarizeLatency(summarizeAll(windows))
	if math.Abs(s.tailPct-95) > 1e-9 || s.p99us != 190 {
		t.Errorf("got tail p%v = %v us, want p95 = 190 us", s.tailPct, s.p99us)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, med, q3 := quartiles(vs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func filled(v float64, jitter float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = v * (1 + jitter*float64(i-5)/5)
	}
	return out
}

func TestJudge(t *testing.T) {
	tp := gate{"throughput_ops_s", true, 0.10}
	p99 := gate{"lat_p99_us", false, 0.20}
	cases := []struct {
		name string
		a, b []float64
		g    gate
		want string
	}{
		{"same", filled(100, 0.01), filled(100, 0.01), tp, "ok"},
		{"throughput up", filled(100, 0.01), filled(130, 0.01), tp, "ok"},
		{"throughput down 15%", filled(100, 0.01), filled(85, 0.01), tp, "worse"},
		{"throughput down 5%", filled(100, 0.01), filled(95, 0.01), tp, "ok"},
		{"latency up 30%", filled(100, 0.01), filled(130, 0.01), p99, "worse"},
		{"latency down", filled(100, 0.01), filled(50, 0.01), p99, "ok"},
		// Quartile spread of ~24 % on a 10 % bound: a flat median proves
		// nothing.
		{"noisy base", filled(100, 0.4), filled(100, 0.01), tp, "unresolved"},
		{"noisy change", filled(100, 0.01), filled(100, 0.4), tp, "unresolved"},
		// Worse beyond the bound stays worse however noisy.
		{"noisy and worse", filled(100, 0.4), filled(50, 0.4), tp, "worse"},
	}
	for _, c := range cases {
		if v := judge(c.a, c.b, c.g); v.word != c.want {
			t.Errorf("%s: got %s (ratio %.3f spread %.3f/%.3f), want %s", c.name, v.word, v.ratio, v.spreadA, v.spreadB, c.want)
		}
	}
}

func TestCompareResultsTable(t *testing.T) {
	mk := func(tput float64) *resultsFile {
		f := &resultsFile{}
		for i := 0; i < 10; i++ {
			f.Runs = append(f.Runs, runRecord{Workload: "point_wire", Metrics: map[string]metric{
				"throughput_ops_s": {tput + float64(i), "ops/s"},
				"lat_p50_us":       {100, "us"},
				"lat_p99_us":       {500, "us"},
				"setup_s":          {1, "s"},
			}})
		}
		// Traced runs never feed the comparison.
		f.Runs = append(f.Runs, runRecord{Workload: "point_wire", Trace: true, Metrics: map[string]metric{"throughput_ops_s": {1, "ops/s"}}})
		return f
	}
	var buf bytes.Buffer
	if code := compareResults(&buf, mk(1000), mk(1000)); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareResults(&buf, mk(1000), mk(700)); code != 1 {
		t.Errorf("30%% throughput drop: exit %d\n%s", code, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "worse") || strings.Count(out, "point_wire") != len(gates) {
		t.Errorf("want one row per gate and a worse verdict:\n%s", out)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Stmt: 1, Name: "stmt", Parent: -1, Start: 0, End: 100},
		{Stmt: 1, Name: "parse", Parent: 0, Start: 10, End: 30},
		{Stmt: 1, Name: "exec", Parent: 0, Start: 40, End: 90},
		{Stmt: 1, Name: "scan", Parent: 2, Start: 50, End: 80},
		{Stmt: 2, Name: "stmt", Parent: -1, Start: 200, End: 260},
		{Stmt: 2, Name: "parse", Parent: 0, Start: 210, End: 220},
	}
	total, self, count := selfTimes(spans)
	if total["stmt"] != 160 || self["stmt"] != 160-20-50-10 {
		t.Errorf("stmt: total %d self %d", total["stmt"], self["stmt"])
	}
	if self["exec"] != 20 || self["scan"] != 30 || self["parse"] != 30 || count["parse"] != 2 {
		t.Errorf("exec self %d scan self %d parse self %d n=%d", self["exec"], self["scan"], self["parse"], count["parse"])
	}
}
