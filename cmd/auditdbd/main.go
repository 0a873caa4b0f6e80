// Command auditdbd serves an audited database over TCP. Each
// connection is an independent session: the user it sets with the
// protocol's "set user" op is the identity SELECT triggers record for
// that connection's queries, so concurrent users are attributed
// correctly — the paper's multi-user auditing setting.
//
// Two wire protocols share one transport: line-delimited JSON (see
// internal/wire; the Go client lives in internal/client) on -addr, and
// the PostgreSQL v3 wire protocol (see internal/pgwire) on -pg-addr,
// so psql and any libpq/pgx/JDBC client can connect. Example:
//
//	auditdbd -addr 127.0.0.1:5433 -pg-addr 127.0.0.1:5432 -demo -metrics-addr 127.0.0.1:9090
//	psql 'host=127.0.0.1 port=5432 user=dr_mallory sslmode=disable'
//	printf '%s\n' \
//	    '{"op":"set","key":"user","value":"dr_mallory"}' \
//	    '{"op":"query","sql":"SELECT * FROM Patients WHERE Name = '\''Alice'\''"}' \
//	    '{"op":"query","sql":"SELECT * FROM Log"}' | nc 127.0.0.1 5433
//	curl -s http://127.0.0.1:9090/metrics
//
// Logs are structured (log/slog): text or JSON via -log-format, with
// connection lifecycle, trigger firings, and a -slow-query threshold
// log. SIGINT/SIGTERM trigger a graceful shutdown: in-flight
// statements finish and their responses are delivered before
// connections close.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"auditdb"
	"auditdb/internal/engine"
	"auditdb/internal/pgwire"
	"auditdb/internal/server"
	"auditdb/internal/triage"
	"auditdb/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:5433", "TCP listen address for the line-JSON protocol")
		pgAddr       = flag.String("pg-addr", "", "TCP listen address for the PostgreSQL wire protocol (empty = disabled)")
		maxConns     = flag.Int("max-conns", 256, "maximum concurrent connections (0 = unlimited)")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-statement execution limit (0 = none)")
		idleTimeout  = flag.Duration("idle-timeout", 10*time.Minute, "close connections idle this long (0 = none)")
		gracePeriod  = flag.Duration("grace", 15*time.Second, "shutdown drain deadline")
		demo         = flag.Bool("demo", false, "preload the paper's healthcare example")
		initScript   = flag.String("init", "", "SQL script to execute before serving")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP listen address for /metrics and /healthz (empty = disabled)")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		slowQuery    = flag.Duration("slow-query", 0, "log statements with end-to-end latency at or above this (0 = disabled)")
		dataDir      = flag.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty = in-memory only)")
		syncMode     = flag.String("sync", "interval", "WAL fsync policy: always, interval, or off")
		syncInterval = flag.Duration("sync-interval", 50*time.Millisecond, "fsync period under -sync interval")
		ckptInterval = flag.Duration("checkpoint-interval", 5*time.Minute, "periodic checkpoint cadence (0 = only on shutdown)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "default per-query worker budget for parallel execution (1 = serial; sessions override with SET workers)")
		traceSample  = flag.Int("trace-sample", 0, "capture a full span trace for every nth statement (0 = off; sessions force capture with SET trace = on)")
		pprofOn      = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
		triageWork   = flag.Int("triage-workers", 2, "background verification workers draining the audit triage queue (0 = triage disabled)")
		triageQueue  = flag.Int("triage-queue", 256, "bound on the priority-ordered triage queue; overflow evicts the lowest-priority, newest event")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "auditdbd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "auditdbd: bad -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	eng := engine.New()
	eng.SetSlowQueryThreshold(*slowQuery)
	eng.SetDefaultWorkers(*workers)
	eng.SetTraceSampling(*traceSample)

	// Durability: recover from the data directory, then attach the WAL
	// so everything after this point — including -demo/-init — is
	// logged. Recovered state means the seed scripts already ran on a
	// previous boot; re-running them would double-apply.
	fresh := true
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*syncMode)
		if err != nil {
			logger.Error("bad -sync", "err", err)
			os.Exit(2)
		}
		start := time.Now()
		m, rec, err := wal.Open(*dataDir, wal.Options{
			Sync:         policy,
			SyncInterval: *syncInterval,
			Metrics:      wal.NewMetrics(eng.Metrics()),
		})
		if err != nil {
			logger.Error("opening data dir failed", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		if err := eng.Recover(rec); err != nil {
			logger.Error("recovery failed", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		eng.AttachWAL(m)
		fresh = rec.WasFresh()
		logger.Info("recovered from data dir",
			"dir", *dataDir,
			"snapshot", rec.HasSnapshot,
			"replayed_commits", len(rec.Commits),
			"audit_seq", rec.AuditSeq,
			"repaired_torn_tail", rec.Repaired,
			"sync", policy.String(),
			"took", time.Since(start))
	}

	if *demo && !fresh {
		logger.Info("skipping -demo: data dir holds recovered state")
	}
	if *demo && fresh {
		if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
			logger.Error("loading demo failed", "err", err)
			os.Exit(1)
		}
		logger.Info("loaded healthcare demo",
			"audit_expression", "Audit_Alice", "trigger", "Log_Alice")
	}
	if *initScript != "" && !fresh {
		logger.Info("skipping -init: data dir holds recovered state", "path", *initScript)
	}
	if *initScript != "" && fresh {
		script, err := os.ReadFile(*initScript)
		if err != nil {
			logger.Error("reading init script failed", "path", *initScript, "err", err)
			os.Exit(1)
		}
		if _, err := eng.ExecScript(string(script)); err != nil {
			logger.Error("init script failed", "path", *initScript, "err", err)
			os.Exit(1)
		}
		logger.Info("executed init script", "path", *initScript)
	}

	// Audit triage: queue every trigger firing by declared PRIORITY and
	// sign a verdict for it in the background — from the firing itself
	// when its accessed IDs are exact, by an offline replay otherwise.
	// Verdicts are signed records in the hash-chained audit stream, so
	// triage needs the WAL; without -data-dir there is nowhere to write
	// them.
	if *triageWork > 0 {
		if eng.WAL() == nil {
			logger.Info("triage disabled: verdicts need -data-dir for the audit stream")
		} else {
			eng.ConfigureTriage(triage.Config{Workers: *triageWork, QueueBound: *triageQueue})
			logger.Info("audit triage running", "workers", *triageWork, "queue", *triageQueue)
		}
	}

	srv := server.New(eng, server.Config{
		Addr:         *addr,
		MaxConns:     *maxConns,
		QueryTimeout: *queryTimeout,
		IdleTimeout:  *idleTimeout,
		Logger:       logger,
	})
	if *pgAddr != "" {
		if err := srv.AddListener(*pgAddr, pgwire.New(srv.Metrics())); err != nil {
			logger.Error("adding pg listener failed", "err", err)
			os.Exit(1)
		}
	}
	// Catch SIGTERM before the first client can connect: a client that
	// signals right after its first reply must get the drain, not the
	// default action's immediate death.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	if err := srv.Start(); err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	// The address stays followed by a space inside the message: startup
	// scripts (and the smoke test) extract it as the field after
	// "listening on ".
	logger.Info(fmt.Sprintf("auditdbd listening on %s (max-conns=%d query-timeout=%s)",
		srv.Addr(), *maxConns, *queryTimeout))
	if *pgAddr != "" {
		// Same sed-friendly shape as above, for scripts that need the
		// bound pg port: the field after "pg listening on ".
		logger.Info(fmt.Sprintf("auditdbd pg listening on %s (protocol=postgresql)",
			srv.ProtoAddr("pg")))
	}

	if *metricsAddr != "" {
		extra := map[string]http.Handler{
			"/traces": eng.TraceRing().Handler(),
		}
		endpoints := "/metrics /healthz /traces"
		if *pprofOn {
			extra["/debug/pprof/"] = http.HandlerFunc(pprof.Index)
			extra["/debug/pprof/cmdline"] = http.HandlerFunc(pprof.Cmdline)
			extra["/debug/pprof/profile"] = http.HandlerFunc(pprof.Profile)
			extra["/debug/pprof/symbol"] = http.HandlerFunc(pprof.Symbol)
			extra["/debug/pprof/trace"] = http.HandlerFunc(pprof.Trace)
			endpoints += " /debug/pprof/"
		}
		ms, err := srv.Metrics().ListenAndServeWith(*metricsAddr, extra)
		if err != nil {
			logger.Error("metrics listener failed", "err", err)
			os.Exit(1)
		}
		defer ms.Close()
		logger.Info("metrics listening", "addr", ms.Addr().String(),
			"endpoints", endpoints)
	}

	// Periodic checkpoints bound recovery time and data-WAL growth.
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	if eng.WAL() != nil && *ckptInterval > 0 {
		go func() {
			defer close(ckptDone)
			ticker := time.NewTicker(*ckptInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					start := time.Now()
					if err := eng.Checkpoint(); err != nil {
						logger.Error("periodic checkpoint failed", "err", err)
					} else {
						logger.Info("checkpoint complete", "took", time.Since(start))
					}
				case <-ckptStop:
					return
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	sig := <-sigCh
	logger.Info("draining connections", "signal", sig.String(), "deadline", *gracePeriod)
	ctx, cancel := context.WithTimeout(context.Background(), *gracePeriod)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	// Drain the triage backlog before the final checkpoint so queued
	// verdicts land in the audit stream; past the grace deadline the
	// in-flight audits are cancelled and the rest are abandoned.
	eng.StopTriage(ctx)
	if eng.WAL() != nil {
		close(ckptStop)
		<-ckptDone
		// A clean shutdown leaves one snapshot and an empty data WAL, so
		// the next boot recovers from the checkpoint alone.
		if err := eng.Checkpoint(); err != nil {
			logger.Error("shutdown checkpoint failed", "err", err)
		}
		if err := eng.CloseWAL(); err != nil {
			logger.Error("closing wal failed", "err", err)
		}
	}
	for k, v := range srv.Stats() {
		fmt.Printf("  %-22s %d\n", k, v)
	}
	logger.Info("auditdbd stopped cleanly")
}
