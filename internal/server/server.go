// Package server is awared's concurrent multi-session service layer: the
// always-on backend the AWARE paper describes running behind the Vizdom
// pen-and-touch front-end. It owns a registry of named immutable datasets and
// a manager of live exploration sessions, and exposes the paper's interactive
// loop — create a session, turn predicates into visualizations and default
// hypotheses, watch the risk gauge, validate findings on a hold-out split,
// export the report — as a JSON HTTP API.
//
// Concurrency model: dataset tables are immutable and shared; each
// core.Session (single-threaded by contract) is owned by the SessionManager
// behind a per-session mutex, so requests on distinct sessions run fully in
// parallel while requests on one session serialize. Idle sessions are
// reclaimed by a TTL sweeper.
package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"time"

	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Logger receives structured request and lifecycle logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// SessionTTL is how long a session may sit idle before the sweeper
	// reclaims it; 0 disables expiry.
	SessionTTL time.Duration
	// SweepInterval is how often the idle sweeper runs; 0 means 1 minute.
	SweepInterval time.Duration
	// JournalDir, when non-empty, makes sessions durable: every applied step
	// is appended to a per-session journal file under the directory, and
	// RestoreSessions replays the journals after a restart. Empty disables
	// journaling (sessions are purely in-memory).
	JournalDir string
	// Workers sizes the morsel-parallel execution pool shared by every
	// registered dataset's kernels: 0 uses the process-wide default pool
	// (GOMAXPROCS workers), 1 pins execution to the request goroutine
	// (sequential, deterministic debugging), N>1 builds a dedicated N-worker
	// pool. Results are bit-identical whichever pool executes them.
	Workers int
	// TraceCapacity bounds the request-trace ring buffer: 0 means
	// obs.DefaultTraceCapacity, negative disables tracing entirely (requests
	// run with a nil span: no trace allocations anywhere).
	TraceCapacity int
	// SlowOp is the slow-operation threshold: any request at least this slow
	// is logged as a structured warning carrying its span tree. 0 disables
	// the slow-op log.
	SlowOp time.Duration
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ — opt-in
	// because profiling endpoints have no business on an exposed port.
	EnablePprof bool
	// NodeName identifies this replica in a cluster: it is reported in
	// /healthz and stamped on every response as the X-Aware-Node header.
	// Empty (a standalone daemon) omits both.
	NodeName string
	// now overrides the clock in tests.
	now func() time.Time
}

// Server wires the dataset registry, the session manager, the step journal
// and the HTTP API together.
type Server struct {
	log      *slog.Logger
	registry *DatasetRegistry
	manager  *SessionManager
	journal  *journalStore // nil when journaling is disabled
	metrics  *Metrics
	tracer   *obs.Tracer  // nil when tracing is disabled (Config.TraceCapacity < 0)
	slow     *obs.SlowLog // nil when the slow-op log is disabled (Config.SlowOp == 0)
	build    obs.BuildInfo
	pprof    bool
	node     string
	pool     *dataset.Pool
	ownPool  bool // pool was built for this server (Config.Workers > 0), so Close releases it
	now      func() time.Time
	sweep    time.Duration
	handler  http.Handler
}

// New builds a server with an empty dataset registry; register at least one
// dataset before serving. With Config.JournalDir set, call RestoreSessions
// after registering datasets to recover journaled sessions.
func New(cfg Config) (*Server, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	sweep := cfg.SweepInterval
	if sweep <= 0 {
		sweep = time.Minute
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	pool := dataset.DefaultPool()
	ownPool := false
	if cfg.Workers > 0 {
		pool = dataset.NewPool(cfg.Workers)
		ownPool = true
	}
	var tracer *obs.Tracer
	if cfg.TraceCapacity >= 0 {
		tracer = obs.NewTracer(cfg.TraceCapacity)
	}
	s := &Server{
		log:      logger,
		registry: NewDatasetRegistry(),
		manager:  NewSessionManager(cfg.SessionTTL, cfg.now),
		metrics:  newMetrics(now()),
		tracer:   tracer,
		slow:     obs.NewSlowLog(logger, cfg.SlowOp),
		build:    obs.ReadBuild(),
		pprof:    cfg.EnablePprof,
		node:     cfg.NodeName,
		pool:     pool,
		ownPool:  ownPool,
		now:      now,
		sweep:    sweep,
	}
	// Every dataset registered from here on runs its kernels on the server's
	// pool: one bounded set of workers shared by all sessions and datasets.
	s.registry.SetPool(pool)
	if cfg.JournalDir != "" {
		journal, err := newJournalStore(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal = journal
	}
	// Middleware, outermost first: every response is stamped with the node
	// name, panics become JSON 500s, at Debug every request is logged, and
	// router-level text errors (404/405) are converted to JSON and counted.
	// Per-endpoint metrics wrap the individual handlers inside the mux, so
	// they observe exactly the requests that were routed.
	s.handler = withNodeHeader(cfg.NodeName, withRecovery(logger, withRequestLog(logger, withJSONErrors(s.metrics, s.routes()))))
	return s, nil
}

// Tracer returns the request-trace ring (nil when tracing is disabled) — the
// same spans GET /debug/trace serves.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Build returns the binary's build metadata.
func (s *Server) Build() obs.BuildInfo { return s.build }

// Pool returns the execution pool the server's datasets run their
// morsel-parallel kernels on.
func (s *Server) Pool() *dataset.Pool { return s.pool }

// Close releases resources a server owns outside Serve's lifetime: the
// dedicated execution pool (when Config.Workers > 0 built one) stops its
// background workers. Callers that serve the Handler themselves (tests,
// in-process load generation) should Close when done; Serve calls it on exit.
// Close is idempotent and does not touch the shared DefaultPool.
func (s *Server) Close() {
	if s.ownPool {
		s.pool.Close()
	}
}

// openSession builds the session spec describes over its registered dataset,
// replays steps onto it and opens it in the manager under id (0 allocates the
// next ID). It is the one way a session opens: created (no steps), restored
// through the API, or restored from a journal at startup. writeJournal, the
// manager's prepublish step, makes the session durable before it is
// reachable: its journal then holds the header and every step it was opened
// with.
func (s *Server) openSession(id int64, spec SessionSpec, steps []core.Step, writeJournal func(id int64) error) (SessionInfo, error) {
	if spec.Dataset == "" {
		return SessionInfo{}, errors.New("missing dataset name")
	}
	table, sel, err := s.registry.Dataset(spec.Dataset)
	if err != nil {
		return SessionInfo{}, err
	}
	opts, err := spec.Options()
	if err != nil {
		return SessionInfo{}, err
	}
	// The dataset's shared filter cache: sessions over one immutable dataset,
	// live or replayed, reuse each other's compiled filter bitmaps.
	opts.Selections = sel
	// Join steps resolve their right-hand dataset through the registry.
	opts.Catalog = s.registry
	sess, err := core.Replay(table, opts, steps)
	if err != nil {
		return SessionInfo{}, err
	}
	return s.manager.Open(id, spec, sess, writeJournal)
}

// createJournal returns the prepublish step that writes a fresh journal of
// spec and steps, or nil when journaling is disabled.
func (s *Server) createJournal(spec SessionSpec, steps []core.Step) func(id int64) error {
	if s.journal == nil {
		return nil
	}
	return func(id int64) error { return s.journal.Create(id, spec, steps) }
}

// RestoreSessions recovers journaled sessions from the journal directory:
// each journal opens through openSession under its original ID, its steps
// replayed with core.Replay against the named registered dataset, and its
// file reopened for appending before the session is reachable. Journals for
// unknown datasets or with non-replayable steps are skipped with a warning
// (and kept on disk), never discarded silently; a journal that cannot be
// reopened stops the recovery with its error. It returns the number of
// sessions restored and is a no-op without a journal directory.
func (s *Server) RestoreSessions() (int, error) {
	if s.journal == nil {
		return 0, nil
	}
	journaled, skipped, maxID, err := s.journal.Load()
	if err != nil {
		return 0, err
	}
	for _, reason := range skipped {
		s.log.Warn("unreadable session journal kept on disk; skipping", "journal", reason)
	}
	// Keep future session IDs clear of every journal on disk — including the
	// skipped ones, which a colliding create would otherwise truncate.
	s.manager.ReserveIDs(maxID)
	restored := 0
	for _, js := range journaled {
		info, err := s.openSession(js.ID, js.Spec, js.Steps, func(id int64) error {
			return s.journal.Reopen(id, js.ValidBytes)
		})
		if errors.Is(err, ErrJournal) {
			return restored, err
		}
		if err != nil {
			s.log.Warn("journaled session does not replay; skipping", "id", js.ID, "dataset", js.Spec.Dataset, "err", err)
			continue
		}
		s.log.Info("session restored from journal", "id", info.ID, "dataset", info.Dataset,
			"steps", len(js.Steps), "policy", info.Policy)
		restored++
	}
	return restored, nil
}

// Registry returns the dataset registry, for preloading tables.
func (s *Server) Registry() *DatasetRegistry { return s.registry }

// Handler returns the fully-wrapped HTTP handler (routing, panic recovery,
// and a structured line per request at Debug).
func (s *Server) Handler() http.Handler { return s.handler }

// Serve serves the API on an already-bound listener until ctx is cancelled,
// then shuts down gracefully: in-flight requests get shutdownGrace to finish
// before the listener is torn down. The idle-session sweeper runs alongside
// the listener. Taking a listener (rather than an address) lets callers bind
// port 0 and publish the real address before serving — how cluster nodes
// report themselves. Serve returns nil on a clean shutdown and owns the
// listener either way.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	if s.journal != nil {
		defer s.journal.Close()
	}
	httpServer := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The sweeper stops when ctx is cancelled OR when the listener fails
	// early — otherwise a dead listener would leave Serve waiting on a
	// goroutine that never returns.
	sweepCtx, stopSweeper := context.WithCancel(ctx)
	defer stopSweeper()
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		ticker := time.NewTicker(s.sweep)
		defer ticker.Stop()
		for {
			select {
			case <-sweepCtx.Done():
				return
			case <-ticker.C:
				if expired := s.manager.SweepIdle(); len(expired) > 0 {
					s.removeJournals(expired)
					s.log.Info("expired idle sessions", "ids", expired, "live", s.manager.Len())
				}
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		s.log.Info("awared listening", "addr", ln.Addr().String(), "node", s.node)
		errc <- httpServer.Serve(ln)
	}()

	select {
	case err := <-errc:
		stopSweeper()
		<-sweepDone
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	s.log.Info("shutting down", "grace", shutdownGrace)
	err := httpServer.Shutdown(shutdownCtx)
	<-sweepDone
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// shutdownGrace bounds how long Serve waits for in-flight requests on shutdown.
const shutdownGrace = 5 * time.Second

// removeJournals drops the journal files of deleted or expired sessions so a
// restart does not resurrect them.
func (s *Server) removeJournals(ids []int64) {
	if s.journal == nil {
		return
	}
	for _, id := range ids {
		s.journal.Remove(id)
	}
}
