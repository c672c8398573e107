package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// SlowLog emits one structured log line — carrying the full span tree — for
// every operation whose duration crosses a threshold. It is the bridge
// between always-on tracing (bounded ring, sampled by luck) and the
// operator's logs (persistent, but too noisy for every request): only the
// outliers land in the log, with enough attached context to explain
// themselves.
//
// A nil *SlowLog never logs; Observe on nil is free.
type SlowLog struct {
	logger    *slog.Logger
	threshold time.Duration
	logged    atomic.Uint64
}

// NewSlowLog returns a slow-op log writing to logger for operations slower
// than threshold. A nil logger or non-positive threshold disables it (returns
// nil).
func NewSlowLog(logger *slog.Logger, threshold time.Duration) *SlowLog {
	if logger == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{logger: logger, threshold: threshold}
}

// Logged returns how many slow operations have been logged (0 on nil).
func (l *SlowLog) Logged() uint64 {
	if l == nil {
		return 0
	}
	return l.logged.Load()
}

// Observe logs the operation if it crossed the threshold. span may be nil
// (untraced request): the line is still emitted, just without a trace tree.
// Call after the span is ended — the logged tree must be immutable.
func (l *SlowLog) Observe(kind, name string, d time.Duration, span *Span) {
	if l == nil || d < l.threshold {
		return
	}
	l.logged.Add(1)
	attrs := []any{
		"kind", kind,
		"name", name,
		"duration_ms", durationMs(d),
		"threshold_ms", durationMs(l.threshold),
	}
	if span != nil {
		attrs = append(attrs, "trace", span.JSON())
	}
	l.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow operation", slog.Group("slow_op", attrs...))
}
