// Command awared is the AWARE service daemon: the always-on, multi-session
// backend the paper ran behind the Vizdom front-end. It preloads the
// synthetic census dataset, optionally registers CSV datasets from disk
// (loaded through the snapshot builder, their column types inferred exactly
// as awarestore build infers them), and serves the interactive exploration
// loop as a JSON HTTP API (see internal/server for the endpoint list).
//
// Usage:
//
//	awared                                    # serve the census on :8080
//	awared -addr :9090 -rows 100000           # bigger census, custom port
//	awared -dataset sales=sales.csv           # also serve a CSV (repeatable)
//	awared -data /var/lib/aware -rows 0       # mmap every *.aware snapshot in a
//	                                          # directory; no re-parse on restart
//	awared -session-ttl 10m -sweep 30s        # reclaim idle sessions faster
//	awared -journal-dir /var/lib/awared       # durable sessions: journal every
//	                                          # step and replay them on restart
//
// A minimal exploration from the command line:
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{"dataset": "census"}'
//	curl -s -X POST localhost:8080/v1/sessions/1/steps \
//	    -d '{"op": "add_visualization", "target": "gender", "predicate": {"type": "equals", "column": "salary_over_50k", "value": "true"}}'
//	curl -s localhost:8080/v1/sessions/1/gauge
//	curl -s localhost:8080/v1/sessions/1/report
//
// Observability: GET /metrics serves the Prometheus text exposition,
// GET /debug/trace the captured request span trees; -slow-op logs requests
// over a threshold with their span tree, -pprof mounts net/http/pprof, and
// -version prints the build metadata and exits.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, letting in-flight
// requests finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aware/internal/census"
	"aware/internal/dataset"
	"aware/internal/obs"
	"aware/internal/server"
)

// options is awared's resolved command line.
type options struct {
	addr       string
	addrFile   string
	nodeName   string
	rows       int
	seed       int64
	ttl        time.Duration
	sweep      time.Duration
	logLevel   string
	logFormat  string
	journalDir string
	dataDir    string
	workers    int
	traceCap   int
	slowOp     time.Duration
	pprof      bool
	datasets   map[string]string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the bound listen address to this file once serving (for :0 — cluster harnesses learn the real port)")
	flag.StringVar(&o.nodeName, "node-name", "", "replica name in a cluster: reported in /healthz and stamped on every response as X-Aware-Node")
	flag.IntVar(&o.rows, "rows", 30000, "rows of the preloaded synthetic census (0 disables preloading)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the synthetic census")
	flag.DurationVar(&o.ttl, "session-ttl", 30*time.Minute, "idle time before a session is reclaimed (0 = never)")
	flag.DurationVar(&o.sweep, "sweep", time.Minute, "how often the idle-session sweeper runs")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug (adds one line per request), info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "json", "log format: json, text")
	flag.StringVar(&o.journalDir, "journal-dir", "", "directory for per-session step journals; sessions survive restarts (empty = in-memory only)")
	flag.StringVar(&o.dataDir, "data", "", "directory of *.aware columnar snapshots to mmap and serve (each registers under its file name; corrupt files are skipped with a warning)")
	flag.IntVar(&o.workers, "workers", 0, "morsel-parallel execution pool size shared by all datasets (0 = GOMAXPROCS, 1 = sequential/deterministic)")
	flag.IntVar(&o.traceCap, "trace-capacity", 0, "request-trace ring size served at /debug/trace (0 = default, negative disables tracing)")
	flag.DurationVar(&o.slowOp, "slow-op", time.Second, "log requests and steps at least this slow with their span tree (0 disables)")
	flag.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling has no business on an exposed port)")
	version := flag.Bool("version", false, "print build metadata and exit")
	o.datasets = make(map[string]string)
	flag.Func("dataset", "register a CSV dataset as name=path (repeatable; column types are inferred, as awarestore build infers them)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		o.datasets[name] = path
		return nil
	})
	flag.Parse()

	if *version {
		b := obs.ReadBuild()
		dirty := ""
		if b.VCSDirty {
			dirty = "-dirty"
		}
		fmt.Printf("awared %s (%s%s, %s, %s/%s)\n", b.Version, b.ShortRev(), dirty, b.GoVersion, b.GoOS, b.GoArch)
		return
	}

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "awared: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	logger, err := newLogger(o.logFormat, o.logLevel)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Logger:        logger,
		SessionTTL:    o.ttl,
		SweepInterval: o.sweep,
		JournalDir:    o.journalDir,
		Workers:       o.workers,
		TraceCapacity: o.traceCap,
		SlowOp:        o.slowOp,
		EnablePprof:   o.pprof,
		NodeName:      o.nodeName,
	})
	if err != nil {
		return err
	}
	build := srv.Build()
	// One startup line with the fully resolved configuration: what the flags
	// defaulted to matters more in a log than what was typed.
	logger.Info("awared starting",
		"version", build.Version, "revision", build.ShortRev(), "go", build.GoVersion,
		"addr", o.addr, "workers", srv.Pool().Stats().Workers,
		"session_ttl", o.ttl, "journal_dir", o.journalDir,
		"trace_capacity", srv.Tracer().Capacity(), "slow_op", o.slowOp, "pprof", o.pprof)
	if o.dataDir != "" {
		// Snapshots first: mmap'd datasets come up in O(columns) time — the
		// zero-re-parse restart path — before any generation or CSV parsing.
		if _, err := srv.Registry().RegisterSnapshotDir(o.dataDir, logger); err != nil {
			return err
		}
	}
	if err := registerDatasets(srv.Registry(), o.rows, o.seed, o.datasets); err != nil {
		return err
	}
	for _, info := range srv.Registry().List() {
		logger.Info("dataset ready", "name", info.Name, "rows", info.Rows,
			"columns", len(info.Columns), "storage", info.Storage)
	}
	// With journaling on, resurrect the sessions the previous run persisted;
	// the datasets must be registered first so the journals can replay.
	restored, err := srv.RestoreSessions()
	if err != nil {
		return err
	}
	if restored > 0 {
		logger.Info("sessions restored from journal", "count", restored, "dir", o.journalDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Bind before serving so -addr :0 works: the real port is published to
	// -addr-file, which is how cluster harnesses wire routers to child nodes.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	return srv.Serve(ctx, ln)
}

// newLogger builds the process logger: structured JSON by default (one line
// per event, machine-ingestible), text for humans tailing a terminal.
func newLogger(format, level string) (*slog.Logger, error) {
	lvl, err := parseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want json or text)", format)
	}
}

// registerDatasets preloads the synthetic census and any CSV files named on
// the command line. A snapshot already registered under "census" (via -data)
// takes precedence over generating one.
func registerDatasets(registry *server.DatasetRegistry, rows int, seed int64, datasets map[string]string) error {
	if _, err := registry.Get("census"); rows > 0 && err != nil {
		table, err := census.Generate(census.Config{Rows: rows, Seed: seed, SignalStrength: 1})
		if err != nil {
			return err
		}
		if err := registry.Register("census", table); err != nil {
			return err
		}
	}
	for name, path := range datasets {
		table, err := dataset.LoadCSV(path, nil)
		if err != nil {
			return fmt.Errorf("dataset %q: %w", name, err)
		}
		if err := registry.Register(name, table); err != nil {
			return err
		}
	}
	if len(registry.List()) == 0 {
		return fmt.Errorf("no datasets to serve (census disabled, no -dataset flags, no -data snapshots)")
	}
	return nil
}

func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q", s)
	}
}
