package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Instrument wraps an HTTP handler with the shared server telemetry:
//
//   - every request gets a request ID (the caller's X-Request-Id, or a
//     fresh one), put into the request context and echoed on the
//     response — the anchor that correlates access logs, job traces
//     and worker-side execution logs;
//   - reds_http_requests_total{method,code} and
//     reds_http_request_seconds{method} are recorded on completion;
//   - one structured access-log line per request at Info level.
//
// reg and log may each be nil to skip that half.
func Instrument(next http.Handler, reg *Registry, log *slog.Logger) http.Handler {
	var requests *CounterVec
	var durations *HistogramVec
	if reg != nil {
		requests = reg.CounterVec("reds_http_requests_total",
			"HTTP requests served, by method and status code.", "method", "code")
		durations = reg.HistogramVec("reds_http_request_seconds",
			"HTTP request handling latency.", ExponentialBuckets(0.0005, 4, 10), "method")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(WithRequestID(r.Context(), id)))
		elapsed := time.Since(start)
		if requests != nil {
			requests.With(r.Method, strconv.Itoa(sw.status)).Inc()
			durations.With(r.Method).Observe(elapsed.Seconds())
		}
		if log != nil {
			log.Info("http request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(elapsed.Microseconds())/1000,
				"request_id", id)
		}
	})
}

// statusWriter remembers the response status for the access log and
// the requests counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// handlers behind the middleware can still flush.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// NewLogger builds the structured logger both binaries hang off their
// -log.level and -log.format flags: level is debug, info, warn or
// error; format is "json" (the default — one object per line, ready
// for a log pipeline) or "text" (slog's key=value form, for humans).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "", "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
}

// DebugHandler serves the operational debug surface mounted behind the
// -debug.addr flag: net/http/pprof under /debug/pprof/ plus a second
// /metrics mount, so profiling and scraping work even when the public
// listener is saturated. Deliberately a separate handler (and in the
// binaries a separate listener) — pprof must never be exposed on the
// public address.
func DebugHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	return mux
}
