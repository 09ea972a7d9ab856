package server

import (
	"context"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// recoveryMiddleware is the outermost layer: a panic anywhere in the handler
// stack answers 500 and the process keeps serving. Transaction-body panics
// normally never reach here — update recovers them into a *panicError and
// writeError maps it — so anything recovered here is a bug in handler code
// itself, logged with its stack.
//
// http.ErrAbortHandler is re-panicked: it is net/http's own control flow for
// deliberately torn-down responses, not an error.
func (s *Server) recoveryMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.metrics.Panics.Add(1)
				s.log.Error("handler panic recovered",
					"method", r.Method, "path", r.URL.Path, "value", rec, "stack", string(debug.Stack()))
				// Best effort: if the handler already wrote, this is a no-op.
				writeErrJSON(w, http.StatusInternalServerError, "internal", http.ErrAbortHandler)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// loggingMiddleware emits one structured line per request and counts it.
func (s *Server) loggingMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Debug("request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "dur", time.Since(start))
	})
}

// timeoutMiddleware derives the per-request transaction deadline. The
// deadline propagates into the retry loop (AtomicallyCtx / AtomicallyGated),
// so a transaction livelocked by contention gives up with a
// *stm.CancelledError that writeError turns into a 504 — requests never hang
// past the bound.
func (s *Server) timeoutMiddleware(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
