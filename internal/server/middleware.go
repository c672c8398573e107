package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"aware/internal/api"
)

// withNodeHeader stamps every response with the serving node's name, so
// cluster placement is observable from the client side. Outermost in the
// chain: even a panic-recovery 500 names the node that produced it.
func withNodeHeader(node string, next http.Handler) http.Handler {
	if node == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.NodeHeader, node)
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response status and size.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// withRequestLog emits one Debug line per request: method, path, status,
// response size and duration. The level is fixed at startup, so below Debug
// next is returned unwrapped: metrics count every request, and the slow-op
// log keeps the outliers with their span trees.
func withRequestLog(logger *slog.Logger, next http.Handler) http.Handler {
	if !logger.Enabled(context.Background(), slog.LevelDebug) {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		logger.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", time.Since(start),
			"remote", r.RemoteAddr,
		)
	})
}

// jsonErrorWriter intercepts non-JSON error responses. The API speaks JSON
// everywhere, but http.ServeMux writes its own text/plain bodies for
// unmatched routes (404) and method mismatches (405) — and http.Error does
// the same for any handler that slips through. When a response starts with an
// error status and a non-JSON content type, the writer holds the status and
// keeps the text as the message of the {"error": ...} document withJSONErrors
// sends. Headers the original response set (Allow on a 405) are preserved.
type jsonErrorWriter struct {
	http.ResponseWriter
	wroteHeader bool
	convert     bool
	status      int
	buf         bytes.Buffer
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = status
	if status >= 400 && !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.convert = true
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.convert {
		w.buf.Write(p)
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// withJSONErrors wraps the router so every error response — including the
// mux's own 404/405 fallbacks — reaches the client as structured JSON.
// Converted responses never went through a registered handler, so they are
// counted as unrouted in the metrics.
func withJSONErrors(metrics *Metrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jw := &jsonErrorWriter{ResponseWriter: w}
		next.ServeHTTP(jw, r)
		if !jw.convert {
			return
		}
		if metrics != nil {
			metrics.recordUnrouted(jw.status)
		}
		msg := strings.TrimSpace(jw.buf.String())
		if msg == "" {
			msg = http.StatusText(jw.status)
		}
		code := api.CodeBadRequest
		switch jw.status {
		case http.StatusNotFound:
			code = api.CodeNotFound
		case http.StatusMethodNotAllowed:
			code = api.CodeMethodNotAllowed
		}
		api.WriteError(w, jw.status, code, msg)
	})
}

// withRecovery converts a handler panic into a 500 instead of killing the
// whole process — one misbehaving session must not take down every other
// user's exploration.
func withRecovery(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				logger.Error("panic in handler",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", v,
					"stack", string(debug.Stack()),
				)
				api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
