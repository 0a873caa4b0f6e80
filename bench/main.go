// Command bench is the repository's one benchmark: a seeded,
// closed-loop load generator that drives the engine embedded and
// through a real auditdbd child over line-JSON and pgwire, checks every
// reply against an oracle, and — in a separate traced pass — times the
// calls into each layer from outside. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./bench                                   every workload, end-to-end metrics
//	go run ./bench -trace 1                          every workload, per-layer metrics
//	go run ./bench -workload point_wire -seed 7 -seconds 12 -trace 0
//	go run ./bench -runs 10 -out a.json              ten seeds per workload into a file
//	go run ./bench -compare a.json b.json            verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed    = 20130408 // ICDE 2013, Brisbane
	defaultSeconds = 12
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload, as printed on the last line of
// standard output (the four contract keys) and as stored by -out (all
// of it).
type runRecord struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload   string  `json:"workload,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	Trace      bool    `json:"trace,omitempty"`
	StreamHash string  `json:"stream_sha256,omitempty"`
	Sync       string  `json:"sync,omitempty"`
}

// contractLine is the last line of standard output: exactly the keys
// the pipeline reads.
func (r *runRecord) contractLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	NProc   int         `json:"nproc"`
	GoOS    string      `json:"goos"`
	Seconds float64     `json:"seconds"`
	Claim   *string     `json:"claim"` // this harness claims no gain: always null
	Runs    []runRecord `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all five)")
		seed         = flag.Int64("seed", defaultSeed, "workload seed; run i of -runs uses seed+i")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured seconds per run (warm-up is extra)")
		traceFlag    = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: end-to-end metrics")
		runs         = flag.Int("runs", 1, "runs per workload, each with the next seed")
		out          = flag.String("out", "", "write every run's record to this JSON file")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(realMain(*workloadName, *seed, *seconds, *traceFlag == 1, *runs, *out))
}

func realMain(name string, seed int64, seconds float64, traced bool, runs int, out string) (code int) {
	var todo []workload
	if name == "" {
		todo = workloads()
	} else {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		todo = []workload{w}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The daemon child is reaped whatever happens: normal return,
	// panic, SIGINT or SIGTERM (and Pdeathsig if the harness is killed
	// outright).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllDaemons()
		os.RemoveAll(e.runDir)
		os.Exit(130)
	}()
	defer func() {
		killAllDaemons()
		if p := recover(); p != nil {
			os.RemoveAll(e.runDir)
			panic(p)
		}
		if code == 0 {
			os.RemoveAll(e.runDir)
		}
	}()

	file := resultsFile{NProc: e.nproc, GoOS: runtime.GOOS + "/" + runtime.GOARCH, Seconds: seconds}
	allCorrect := true
	var last *runRecord
	for _, w := range todo {
		for i := 0; i < runs; i++ {
			var rec *runRecord
			if traced {
				rec, err = runTraced(e, w, seed+int64(i), seconds)
			} else {
				rec, err = runUntraced(e, w, seed+int64(i), seconds)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				e.keepLogs(w.name)
				return 1
			}
			if !rec.Correct {
				allCorrect = false
				e.keepLogs(w.name)
			}
			file.Runs = append(file.Runs, *rec)
			last = rec
		}
	}
	if out != "" {
		b, _ := json.MarshalIndent(&file, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "bench: FAILED: at least one operation or end-of-run check was wrong")
		return 1
	}
	// Last line of standard output: the one JSON object the pipeline
	// reads (the last run's, when several were made).
	fmt.Println(last.contractLine())
	return 0
}

func newEnv() (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:    root,
		runDir:  filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		results: filepath.Join(root, "bench", "results"),
		nproc:   runtime.GOMAXPROCS(0),
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	return e, os.MkdirAll(e.results, 0o755)
}

// keepLogs copies the daemon's stderr for a failed run into
// bench/results/, where it survives the run directory's removal.
func (e *env) keepLogs(workload string) {
	logs, _ := filepath.Glob(filepath.Join(e.runDir, workload+"*.log"))
	for _, p := range logs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		dst := filepath.Join(e.results, "failed_"+filepath.Base(p))
		if os.WriteFile(dst, b, 0o644) == nil {
			fmt.Fprintf(os.Stderr, "bench: daemon log kept at %s\n", dst)
		}
	}
}

func warmupFor(measure time.Duration) time.Duration {
	w := measure / 4
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// runUntraced is one end-to-end run: `rounds` rounds, each one a fresh
// set-up (timed), a warm-up, a closed loop measured for seconds/rounds,
// and the end-of-run checks. Every metric is the median over the rounds.
func runUntraced(e *env, w workload, seed int64, seconds float64) (*runRecord, error) {
	measure := time.Duration(seconds / rounds * float64(time.Second))
	warm := warmupFor(measure)
	rec := &runRecord{Correct: true, Workload: w.name, Seed: seed, Seconds: seconds, Sync: w.sync}
	var setups, rates []float64
	var stats []windowStat
	var report []string
	clients := 0
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		in, err := w.setup(e, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		clients = len(in.execs)
		res, counters, finishErr, err := runRound(in, seed, warm, measure)
		in.close()
		if err != nil {
			return nil, err
		}
		if round == 0 {
			rec.StreamHash = streamHash(in.streams(seed))
		}
		rec.Attempted += res.attempted
		rec.Failed += res.failed
		if res.failed != 0 || finishErr != nil || res.attempted == 0 {
			rec.Correct = false
		}
		rate := float64(len(res.lat)) / measure.Seconds()
		rates = append(rates, rate)
		ws := summarizeWindow(res.lat)
		stats = append(stats, ws)
		report = append(report, fmt.Sprintf("   round %d: set-up %.3fs  %.1f ops/s  p50 %.1fus  p%.4g %.1fus  n=%d  counters: %s",
			round+1, setups[round], rate, ws.p50, ws.tailPct, ws.p99, ws.n, counters))
		if in.note != "" {
			report = append(report, "            checks: "+in.note)
		}
		for _, f := range res.failures {
			report = append(report, "            FAILED OP: "+f)
		}
		if finishErr != nil {
			report = append(report, fmt.Sprintf("            FAILED CHECK: %v", finishErr))
		}
		runtime.GC()
	}
	lat := summarizeLatency(stats)
	rec.Metrics = map[string]metric{
		"throughput_ops_s": {medianFloat(rates), "ops/s"},
		"lat_p50_us":       {lat.p50us, "us"},
		"lat_p99_us":       {lat.p99us, "us"},
		"setup_s":          {medianFloat(setups), "s"},
	}

	fmt.Printf("== %s  seed=%d  clients=%d (closed loop, one statement in flight each)  %d rounds x (fresh set-up, warm-up %s, measured %s)\n",
		w.name, seed, clients, rounds, warm, measure)
	fmt.Printf("   sync policy: %s\n", w.sync)
	fmt.Printf("   stream sha256 (first %d statements per client): %s\n", hashedPrefix, rec.StreamHash)
	for _, g := range gates {
		fmt.Printf("   %-18s %14.4f %s\n", g.name, rec.Metrics[g.name].Value, rec.Metrics[g.name].Unit)
	}
	fmt.Printf("   ops_attempted=%d ops_failed=%d failed_share=%.6f\n", rec.Attempted, rec.Failed, share(rec.Failed, rec.Attempted))
	fmt.Printf("   samples=%d (smallest round: %d; tail percentile used: p%.4g); every figure above is the median of the rounds\n",
		lat.samples, lat.minWindow, lat.tailPct)
	for _, line := range report {
		fmt.Println(line)
	}
	return rec, nil
}

// runRound drives one set-up instance: warm-up, the measured loop, the
// end-of-run checks. It returns the loop's result, the system's own
// counters as deltas over the round, and the checks' verdict.
func runRound(in *instance, seed int64, warm, measure time.Duration) (res loopResult, counters string, finishErr, err error) {
	before, err := in.counters()
	if err != nil {
		return res, "", nil, err
	}
	watchdog := time.AfterFunc(warm+measure+2*opTimeout, killAllDaemons)
	res = runClosedLoop(in.execs, in.streams(seed), warm, measure, in.spanName, false)
	watchdog.Stop()
	after, err := in.counters()
	if err != nil {
		return res, "", nil, err
	}
	return res, counterDeltas(before, after), in.finish(&res), nil
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// counterDeltas renders the counters the per-layer table names, as the
// change over the run.
func counterDeltas(before, after map[string]int64) string {
	keys := []string{"statements", "queries", "triggers_fired", "plan_cache_hits",
		"plan_cache_shared_hits", "plan_cache_shared_misses", "plan_cache_shared_evictions",
		"chunks_scanned", "chunks_skipped_filter", "chunks_skipped_audit", "parallel_queries",
		"wal_fsyncs", "wal_bytes_written", "wal_records_appended"}
	var parts []string
	for _, k := range keys {
		if d := after[k] - before[k]; d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, d))
		}
	}
	return strings.Join(parts, " ")
}
