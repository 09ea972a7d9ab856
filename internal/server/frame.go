package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// serve is the one frame around the routes. It counts the request, contains a
// panic anywhere in the handler stack (500, the process keeps serving), bounds
// the request's transaction with the server deadline, and writes the access
// log line when the logger has Debug enabled.
//
// Transaction-body panics normally never reach the recover below — update
// recovers them into a *panicError and writeError maps it — so anything
// recovered here is a bug in handler code itself, logged with its stack.
// http.ErrAbortHandler is re-panicked: it is net/http's own control flow for
// deliberately torn-down responses, not an error.
//
// The deadline propagates into the retry loop (AtomicallyCtx /
// AtomicallyGated), so a transaction livelocked by contention gives up with a
// *stm.CancelledError that writeError turns into a 504 — requests never hang
// past the bound.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	var (
		sw    *statusWriter
		start time.Time
	)
	if s.log.Enabled(r.Context(), slog.LevelDebug) {
		sw, start = &statusWriter{ResponseWriter: w}, time.Now()
		w = sw
	}
	var dl *deadlineCtx
	if s.cfg.RequestTimeout > 0 {
		dl = newDeadlineCtx(r.Context(), time.Now().Add(s.cfg.RequestTimeout))
		r = r.WithContext(dl)
	}
	defer func() {
		dl.stop()
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
		if sw != nil {
			s.log.Debug("request",
				"method", r.Method, "path", r.URL.Path,
				"status", sw.status, "dur", time.Since(start))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

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

// deadlineCtx is the request's context bounded by the server deadline, with
// the deadline's timer armed only when somebody waits on Done — a request
// queued at the admission gate, or a backoff sleep long enough to select on
// it. Everything else (the retry loop's per-attempt Err) reads the parent and
// the clock, so the common request, which commits without waiting, never
// starts a runtime timer. Once armed it is a context.WithDeadline of the
// parent, and Value answers from it, so contexts derived from this one
// register with its cancellation like any other.
type deadlineCtx struct {
	context.Context // the parent
	deadline        time.Time

	mu     sync.Mutex
	armed  context.Context // WithDeadline(parent, deadline) once Done was called
	cancel context.CancelFunc
	err    error // the first non-nil Err, returned from then on
}

func newDeadlineCtx(parent context.Context, deadline time.Time) *deadlineCtx {
	if d, ok := parent.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return &deadlineCtx{Context: parent, deadline: deadline}
}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.cancel = context.WithDeadline(c.Context, c.deadline)
		if c.err != nil {
			c.cancel() // Err has already reported the end
		}
	}
	return c.armed.Done()
}

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.err != nil:
	case c.armed != nil:
		c.err = c.armed.Err()
	default:
		if c.err = c.Context.Err(); c.err == nil && !time.Now().Before(c.deadline) {
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

func (c *deadlineCtx) Value(key any) any {
	c.mu.Lock()
	armed := c.armed
	c.mu.Unlock()
	if armed != nil {
		return armed.Value(key)
	}
	return c.Context.Value(key)
}

// stop cancels the context when the request is done, releasing the armed
// timer if there is one; a nil c is a no-op.
func (c *deadlineCtx) stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = context.Canceled
	}
	if c.cancel != nil {
		c.cancel()
	}
}
