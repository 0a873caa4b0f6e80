package main

import (
	"math"
	"slices"
	"sort"
)

// rounds is how many equal pieces the measured time is cut into. Each
// round runs on a freshly set-up system, and every end-to-end figure is
// the median over the rounds: a GC pause or fsync hiccup lands in one
// round, and so does a daemon instance that happens to run slow for its
// whole life (about one in eight does on the reference sandbox, by
// ~30 %), and neither can move the result.
const rounds = 3

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile picks the percentile a sample of n supports: 99 when
// n >= 1000, otherwise the highest percentile that still leaves at
// least ten samples beyond it (never below the median).
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	p := 100 * (1 - 10/float64(n))
	if p < 50 {
		p = 50
	}
	return p
}

// medianFloat returns the median of vs (mean of the middle two for an
// even count). vs is sorted in place.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// windowStat summarizes the latencies (ns) completed in one round.
type windowStat struct {
	n        int
	p50, p99 float64 // microseconds
	tailPct  float64 // the percentile p99 actually is (99 unless n < 1000)
}

func summarizeWindow(lat []int64) windowStat {
	if len(lat) == 0 {
		return windowStat{}
	}
	slices.Sort(lat)
	tp := tailPercentile(len(lat))
	return windowStat{
		n:       len(lat),
		p50:     float64(percentile(lat, 50)) / 1e3,
		p99:     float64(percentile(lat, tp)) / 1e3,
		tailPct: tp,
	}
}

// latencySummary is the run-level latency report: medians over the
// rounds, plus what the tail figure rests on.
type latencySummary struct {
	p50us, p99us float64
	samples      int     // all rounds together
	minWindow    int     // smallest round's sample count
	tailPct      float64 // lowest percentile any round had to fall back to
}

// summarizeLatency reports the median of the rounds' medians and of
// their tail percentiles. Empty rounds are skipped.
func summarizeLatency(perRound []windowStat) latencySummary {
	var p50s, p99s []float64
	out := latencySummary{tailPct: 99, minWindow: math.MaxInt}
	for _, ws := range perRound {
		if ws.n == 0 {
			continue
		}
		p50s = append(p50s, ws.p50)
		p99s = append(p99s, ws.p99)
		out.samples += ws.n
		if ws.n < out.minWindow {
			out.minWindow = ws.n
		}
		if ws.tailPct < out.tailPct {
			out.tailPct = ws.tailPct
		}
	}
	if out.samples == 0 {
		out.minWindow = 0
	}
	out.p50us = medianFloat(p50s)
	out.p99us = medianFloat(p99s)
	return out
}

// quartiles returns the first quartile, median and third quartile of vs
// by the exclusive method — the values Python's
// statistics.quantiles(vs, n=4) gives, which is what the pipeline uses.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
