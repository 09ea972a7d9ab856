// Package server is the traffic-serving front end over the STM engines: an
// HTTP reservation/ledger service in which every request is one transaction.
// It is the piece that turns the library's production seams — admission
// control (stm.AdmissionGate), request-scoped cancellation (context → retry
// loop), panic containment around the transaction body, the health watchdog —
// into an actual system serving traffic, and the end-to-end
// harness the latency experiments (cmd/twm-load, benchmark's srv-* workloads)
// measure.
//
// Request → transaction mapping:
//
//   - Update requests run stm.AtomicallyGated with the request's context, on
//     the request's goroutine: saturation is refused at the gate (429 +
//     Retry-After), client disconnect cancels the retry loop (499), a
//     server-side deadline bounds pathological contention (504), and a
//     panicking body is recovered into a *panicError (500) after the loop has
//     aborted the attempt, recycled its descriptor and released the slot.
//   - Read-only requests run stm.AtomicallyCtx directly: they bypass the gate
//     (on the multi-version engines they never abort and hold no locks), so
//     reads stay fast while updates queue at the door — the paper's
//     mv-permissiveness claim, observable as p99 read latency under a write
//     storm.
//
// See DESIGN.md §15 for the architecture and the shutdown drain ordering.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engines"
	"repro/internal/health"
	"repro/internal/stm"
	"repro/internal/wal"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// whose client went away while the server was still working on it (here: the
// transaction's context was cancelled mid-retry). No standard code means
// "the caller cancelled"; 499 is the de-facto one.
const StatusClientClosedRequest = 499

// Config assembles a Server. The zero value of every field selects a usable
// default; Engine defaults to "twm".
type Config struct {
	// Engine names the engine to build from the registry (ignored when TM is
	// set). Default "twm".
	Engine string
	// TM supplies a pre-built engine — tests wrap one in chaos fault
	// injection, benchmarks share one across measurements.
	TM stm.TM
	// Accounts pre-creates accounts "0".."N-1" with InitialBalance each, so
	// load generators can start firing without a seeding phase.
	Accounts       int
	InitialBalance int64
	// GateLimit caps concurrently admitted update transactions (default
	// 4×GOMAXPROCS); GateWait bounds queueing at the gate before a 429
	// (default 0: pure shed — an overloaded server should say so immediately,
	// the load generator measures exactly this).
	GateLimit int
	GateWait  time.Duration
	// RequestTimeout bounds each request's transaction (default 2s; <0
	// disables). Contention pathologies surface as 504s, not hung requests.
	RequestTimeout time.Duration
	// WatchdogEvery is the health watchdog sampling period (default 100ms;
	// <0 disables the watchdog entirely).
	WatchdogEvery time.Duration
	// Logger receives structured request/alert logs (default slog.Default).
	Logger *slog.Logger
	// Debug adds the /debugz fault-drill endpoints (panic inside a handler,
	// panic inside a transaction body). Tests and ops drills only.
	Debug bool

	// WALDir, when set, makes the server durable: boot replays the directory's
	// snapshot and log (wal.Recover), the engine is built with the log attached
	// (engines.New with engines.WithLogger — Engine must name a WAL-capable
	// engine, and TM must be nil), and every committed write set is appended
	// before it is acknowledged. See DESIGN.md §16.
	WALDir string
	// FsyncPolicy selects the durability/latency trade ("per-commit" or
	// "interval"; default per-commit). per-commit acknowledges a commit only
	// after an fsync covers its record, so a crash loses none; interval
	// acknowledges at once and a crash loses at most the last interval.
	FsyncPolicy string
	// SnapshotEvery is the periodic checkpoint interval (default 1m; <0
	// disables periodic checkpoints — Close still writes a final one).
	SnapshotEvery time.Duration

	// ReadHeaderTimeout bounds how long a connection may dribble its request
	// header before the server cuts it off (default 5s) — the slow-loris
	// guard. IdleTimeout reaps idle keep-alive connections (default 60s);
	// MaxHeaderBytes caps header memory per connection (default 64KB).
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	MaxHeaderBytes    int
}

// Metrics are the server's own request-outcome counters (the engine's
// transaction counters live in stm.Stats; these count HTTP-level outcomes).
type Metrics struct {
	Requests  atomic.Uint64 // all requests routed to a handler
	Commits   atomic.Uint64 // 2xx responses backed by a committed transaction
	UserFails atomic.Uint64 // 4xx domain refusals (insufficient funds, ...)
	Sheds     atomic.Uint64 // 429 admission refusals
	Cancels   atomic.Uint64 // 499/504 cancelled or timed-out transactions
	Panics    atomic.Uint64 // 500s from contained panics
}

// Server is the HTTP front end. Construct with New, expose with Handler (or
// drive the full lifecycle with Serve), release background resources with
// Close.
type Server struct {
	cfg    Config
	tm     stm.TM
	gate   *stm.AdmissionGate
	ledger *Ledger
	dog    *health.Watchdog
	log    *slog.Logger
	mux    *http.ServeMux

	metrics Metrics
	// draining flips when Serve begins shutdown; /healthz then reports 503 so
	// load balancers stop routing to an instance that is about to go away.
	draining atomic.Bool

	// Durable-mode state (nil/zero on a memory-only server): the log writer,
	// a mutex serializing checkpoints, and the periodic checkpoint loop's
	// lifecycle channels.
	wal      *wal.Writer
	ckptMu   sync.Mutex
	snapStop chan struct{}
	snapDone chan struct{}
}

// New builds a server over the configured engine. The health watchdog starts
// sampling immediately (unless disabled); Close stops it.
func New(cfg Config) (*Server, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Engine == "" {
		cfg.Engine = "twm"
	}
	tm := cfg.TM
	var (
		w   *wal.Writer
		rec *wal.Recovered
	)
	if cfg.WALDir != "" {
		if tm != nil {
			return nil, errors.New("server: Config.TM and Config.WALDir are mutually exclusive (a durable engine must be built with the log attached)")
		}
		var err error
		if tm, w, rec, err = openDurable(&cfg); err != nil {
			return nil, err
		}
	}
	if tm == nil {
		var err error
		if tm, err = engines.New(cfg.Engine); err != nil {
			return nil, err
		}
	}
	if cfg.GateLimit <= 0 {
		cfg.GateLimit = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.WatchdogEvery == 0 {
		cfg.WatchdogEvery = 100 * time.Millisecond
	}
	s := &Server{
		cfg:    cfg,
		tm:     tm,
		gate:   stm.NewAdmissionGate(cfg.GateLimit, cfg.GateWait),
		ledger: NewLedger(tm),
		log:    cfg.Logger,
		wal:    w,
	}
	if w != nil {
		s.ledger.logMeta = w.AppendMeta
		if err := s.recover(rec); err != nil {
			w.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.Accounts; i++ {
		err := s.ledger.Create(fmt.Sprint(i), cfg.InitialBalance)
		if errors.Is(err, ErrExists) {
			continue // recovered from the log; its durable balance stands
		}
		if err != nil {
			return nil, err
		}
	}
	if w != nil && cfg.SnapshotEvery > 0 {
		s.snapStop, s.snapDone = make(chan struct{}), make(chan struct{})
		go s.checkpointLoop(cfg.SnapshotEvery)
	}
	if cfg.WatchdogEvery > 0 {
		s.dog = health.New(health.Config{
			SampleEvery: cfg.WatchdogEvery,
			OnAlert: []health.AlertFunc{func(a health.Alert) {
				s.log.Warn("health transition", "target", a.Target, "condition", a.Condition, "raised", a.Raised, "detail", a.Detail)
			}},
		}, health.TargetOf(tm))
		s.dog.Start()
	}
	s.mux = s.routes()
	return s, nil
}

// TM exposes the engine (tests and the load harness read its stats).
func (s *Server) TM() stm.TM { return s.tm }

// Gate exposes the admission gate's counters.
func (s *Server) Gate() *stm.AdmissionGate { return s.gate }

// Metrics exposes the request-outcome counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Ledger exposes the account table (seeding and audits).
func (s *Server) Ledger() *Ledger { return s.ledger }

// Close stops the watchdog's sampling goroutine and, on a durable server,
// writes a final checkpoint and closes the log. It does not wait for in-flight
// requests — that is Serve's drain (or the HTTP server's Shutdown); call Close
// after the drain so the final checkpoint covers everything acknowledged.
func (s *Server) Close() {
	if s.dog != nil {
		s.dog.Stop()
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
		s.snapStop = nil
	}
	if s.wal != nil {
		if err := s.Checkpoint(); err != nil {
			s.log.Warn("final checkpoint failed; recovery will replay the full log", "err", err)
		}
		s.wal.Close()
	}
}

// Handler returns the full middleware-wrapped handler: recovery outermost
// (a handler bug must answer 500, not kill the process), then request
// logging, then the per-request transaction deadline, then routing.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	h = s.timeoutMiddleware(h)
	h = s.loggingMiddleware(h)
	h = s.recoveryMiddleware(h)
	return h
}

// Serve accepts on ln until ctx is cancelled, then shuts down gracefully:
// stop accepting, close connections that have not started a request, let
// in-flight requests finish (their transactions are bounded by
// RequestTimeout) for up to drain, then hard-close whatever
// remains. The drain ordering matters: requests first (they hold gate slots
// and engine state), watchdog last (it only observes). Returns nil on a clean
// drain; the ledger and engine remain usable after return (Close releases the
// watchdog).
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	// The request base context must OUTLIVE ctx: deriving requests from ctx
	// directly would cancel every in-flight transaction the instant the
	// shutdown signal fires — a mass 499 instead of a drain. base cancels
	// only after Shutdown's drain window, catching whatever is still
	// retrying then.
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	// Protocol-level self-defence lives here, not in middleware: a client
	// that never finishes its header never reaches a handler, so only the
	// http.Server itself can bound it (ReadHeaderTimeout). IdleTimeout reaps
	// parked keep-alive connections and MaxHeaderBytes caps what an unread
	// header can make us buffer.
	readHeader := s.cfg.ReadHeaderTimeout
	if readHeader == 0 {
		readHeader = 5 * time.Second
	}
	idle := s.cfg.IdleTimeout
	if idle == 0 {
		idle = 60 * time.Second
	}
	maxHeader := s.cfg.MaxHeaderBytes
	if maxHeader == 0 {
		maxHeader = 64 << 10
	}
	fresh := &freshConns{conns: make(map[net.Conn]struct{})}
	hs := &http.Server{
		Handler:           s.Handler(),
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: readHeader,
		IdleTimeout:       idle,
		MaxHeaderBytes:    maxHeader,
		ConnState:         fresh.track,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	s.draining.Store(true)
	if drain <= 0 {
		drain = 5 * time.Second
	}
	// ctx is already done; Shutdown needs a fresh deadline for the drain.
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	fresh.refuse()
	err := hs.Shutdown(sctx)
	// Drain over — cleanly or expired. Cancel anything still retrying (a
	// no-op on a clean drain) and, if connections remain, force-close them so
	// their now-cancelled handlers' goroutines retire instead of leaking.
	cancelBase()
	if err != nil {
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("server: drain incomplete: %w", err)
	}
	return nil
}

// freshConns tracks the connections that have not yet started a request
// (http.StateNew) so a drain can refuse them. Shutdown counts such a
// connection as active until it is 5 s old or its ReadHeaderTimeout fires,
// so one unused pre-dialled client connection would otherwise hold the
// whole drain window and turn a graceful stop into "drain incomplete"
// (DESIGN.md §15).
type freshConns struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	n        atomic.Int32 // len(conns), read without mu
	refusing bool
}

// track is the http.Server ConnState hook. A connection is recorded when
// accepted and forgotten at its next state change; once every connection
// has started a request (n == 0), the per-request transitions cost one
// atomic load and allocate nothing.
func (f *freshConns) track(c net.Conn, st http.ConnState) {
	if st != http.StateNew && f.n.Load() == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case st != http.StateNew:
		if _, ok := f.conns[c]; ok {
			delete(f.conns, c)
			f.n.Add(-1)
		}
	case f.refusing:
		c.Close() // accepted just before the listener closed
	default:
		f.conns[c] = struct{}{}
		f.n.Add(1)
	}
}

// refuse closes every connection that has not started a request, and every
// connection accepted from now on, exactly as a closed listener refuses one
// that arrives after it.
func (f *freshConns) refuse() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refusing = true
	for c := range f.conns {
		c.Close()
	}
	clear(f.conns)
	f.n.Store(0)
}

// routes builds the ServeMux. Method+path patterns (Go 1.22 mux) keep the
// routing table declarative.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/accounts", s.handleCreateAccount)
	mux.HandleFunc("GET /v1/accounts/{id}", s.handleGetAccount)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("POST /v1/transfer", s.handleTransfer)
	mux.HandleFunc("POST /v1/deposit", s.handleMove(deposit))
	mux.HandleFunc("POST /v1/reserve", s.handleMove(reserve))
	mux.HandleFunc("POST /v1/release", s.handleMove(release))
	mux.HandleFunc("POST /v1/capture", s.handleMove(capture))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	if s.cfg.Debug {
		mux.HandleFunc("POST /debugz/panic", func(http.ResponseWriter, *http.Request) {
			panic("debugz: handler panic drill")
		})
		mux.HandleFunc("POST /debugz/txpanic", s.handleTxPanic)
	}
	return mux
}

// panicError is a contained transaction-body panic: the request that panicked
// answers 500, the process serves on. Stack keeps the panicking frames for
// the log line.
type panicError struct {
	Value any
	Stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("server: transaction body panicked: %v", e.Value)
}

// update runs fn as a gated update transaction bound to the request context.
// A body panic becomes a *panicError, so every failure mode reaches writeError
// as a typed error. By the time the recover below sees the panic the retry
// loop's own unwinding has aborted the attempt, recycled the descriptor and
// released the gate slot; debug.Stack in a deferred function still shows the
// panicking frames.
func (s *Server) update(ctx context.Context, fn func(stm.Tx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return stm.AtomicallyGated(ctx, s.tm, false, s.gate, fn)
}

// read runs fn as a read-only transaction bound to the request context,
// bypassing the gate.
func (s *Server) read(ctx context.Context, fn func(stm.Tx) error) error {
	return stm.AtomicallyCtx(ctx, s.tm, true, fn)
}

// moveRequest is the body of the single-account money-movement endpoints.
type moveRequest struct {
	Account string `json:"account"`
	Amount  int64  `json:"amount"`
}

// transferRequest is the body of POST /v1/transfer.
type transferRequest struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Amount int64  `json:"amount"`
}

// createRequest is the body of POST /v1/accounts.
type createRequest struct {
	ID      string `json:"id"`
	Balance int64  `json:"balance"`
}

func (s *Server) handleCreateAccount(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ID == "" {
		s.writeError(w, r, fmt.Errorf("%w: missing account id", ErrBadAmount))
		return
	}
	if err := s.ledger.Create(req.ID, req.Balance); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.metrics.Commits.Add(1)
	writeJSON(w, http.StatusCreated, BalanceView{ID: req.ID, Balance: req.Balance, Available: req.Balance})
}

func (s *Server) handleGetAccount(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a, err := s.ledger.lookup(id)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var view BalanceView
	if err := s.read(r.Context(), func(tx stm.Tx) error {
		a.readInto(tx, id, &view)
		return nil
	}); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.metrics.Commits.Add(1)
	writeJSON(w, http.StatusOK, view)
}

// auditView is the full-ledger invariant snapshot: one read-only transaction
// scans every account, so the sums are a consistent cut even while transfers
// churn underneath — the long analytical read the multi-version engines
// promise never aborts.
type auditView struct {
	Accounts     int   `json:"accounts"`
	TotalBalance int64 `json:"totalBalance"`
	TotalHeld    int64 `json:"totalHeld"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	ids := s.ledger.IDs()
	accs := make([]*account, 0, len(ids))
	for _, id := range ids {
		if a, err := s.ledger.lookup(id); err == nil {
			accs = append(accs, a)
		}
	}
	var view auditView
	if err := s.read(r.Context(), func(tx stm.Tx) error {
		view = auditView{Accounts: len(accs)} // reset per attempt
		for _, a := range accs {
			view.TotalBalance += a.balance.Get(tx)
			view.TotalHeld += a.held.Get(tx)
		}
		return nil
	}); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.metrics.Commits.Add(1)
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	var req transferRequest
	if !decode(w, r, &req) {
		return
	}
	from, err := s.ledger.lookup(req.From)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	to, err := s.ledger.lookup(req.To)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if req.From == req.To {
		s.writeError(w, r, fmt.Errorf("%w: self-transfer", ErrBadAmount))
		return
	}
	if err := s.update(r.Context(), func(tx stm.Tx) error {
		return transfer(tx, from, to, req.Amount)
	}); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.metrics.Commits.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"status": "committed"})
}

// handleMove builds the handler for the single-account operations (deposit,
// reserve, release, capture) — same decode/lookup/update/respond shell, one
// ledger operation plugged in.
func (s *Server) handleMove(op func(stm.Tx, *account, int64) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req moveRequest
		if !decode(w, r, &req) {
			return
		}
		a, err := s.ledger.lookup(req.Account)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		if err := s.update(r.Context(), func(tx stm.Tx) error {
			return op(tx, a, req.Amount)
		}); err != nil {
			s.writeError(w, r, err)
			return
		}
		s.metrics.Commits.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"status": "committed"})
	}
}

// handleTxPanic panics from inside a transaction body: the drill for panic
// containment (update recovers it into a *panicError → 500 here, process
// lives).
func (s *Server) handleTxPanic(w http.ResponseWriter, r *http.Request) {
	err := s.update(r.Context(), func(stm.Tx) error {
		panic("debugz: transaction body panic drill")
	})
	s.writeError(w, r, err)
}

// healthzView is the /healthz document: the watchdog's snapshot plus the
// gate's admission counters and the server's own outcome counters.
type healthzView struct {
	Status   string           `json:"status"` // "ok", "degraded" or "draining"
	Watchdog *health.Snapshot `json:"watchdog,omitempty"`
	Gate     gateView         `json:"gate"`
	Server   metricsView      `json:"server"`
}

type gateView struct {
	Limit     int    `json:"limit"`
	InFlight  int    `json:"inFlight"`
	Waiting   int64  `json:"waiting"`
	Admitted  uint64 `json:"admitted"`
	Overloads uint64 `json:"overloads"`
	Cancels   uint64 `json:"cancels"`
}

type metricsView struct {
	Requests  uint64 `json:"requests"`
	Commits   uint64 `json:"commits"`
	UserFails uint64 `json:"userFails"`
	Sheds     uint64 `json:"sheds"`
	Cancels   uint64 `json:"cancels"`
	Panics    uint64 `json:"panics"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	view := healthzView{
		Status: "ok",
		Gate: gateView{
			Limit: s.gate.Limit(), InFlight: s.gate.InFlight(), Waiting: s.gate.Waiting(),
			Admitted: s.gate.Admitted(), Overloads: s.gate.Overloads(), Cancels: s.gate.Cancels(),
		},
		Server: metricsView{
			Requests: s.metrics.Requests.Load(), Commits: s.metrics.Commits.Load(),
			UserFails: s.metrics.UserFails.Load(), Sheds: s.metrics.Sheds.Load(),
			Cancels: s.metrics.Cancels.Load(), Panics: s.metrics.Panics.Load(),
		},
	}
	status := http.StatusOK
	if s.dog != nil {
		snap := s.dog.Snapshot()
		view.Watchdog = &snap
		for _, t := range snap.Targets {
			if len(t.Active) > 0 {
				view.Status = "degraded"
				status = http.StatusServiceUnavailable
			}
		}
	}
	if s.draining.Load() {
		view.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, view)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tm.Stats().Snapshot())
}

// writeError maps a transaction's failure mode to its HTTP shape. This is the
// single point where the stm error taxonomy becomes wire protocol:
//
//	*stm.OverloadError       → 429 + Retry-After (the gate shed the request)
//	*stm.CancelledError      → 499 (client went away) or 504 (server deadline)
//	*stm.OutcomeUnknownError → 503 (applied in memory, durability failed)
//	*panicError              → 500 (contained body panic; stack logged)
//	domain errors            → 404 / 409 / 400 (user-level aborts, not retried)
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var (
		oe *stm.OverloadError
		ce *stm.CancelledError
		ue *stm.OutcomeUnknownError
		le *stm.LogFailedError
		pe *panicError
	)
	switch {
	case errors.As(err, &oe):
		s.metrics.Sheds.Add(1)
		// The client should come back after one gate wait, rounded up (and at
		// least 1s: Retry-After has whole-second resolution) — sooner, no
		// slot can have drained.
		retry := max(1, int64((s.cfg.GateWait+time.Second-1)/time.Second))
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		writeErrJSON(w, http.StatusTooManyRequests, "overloaded", err)
	case errors.As(err, &ce):
		s.metrics.Cancels.Add(1)
		s.log.Info("transaction cancelled",
			"method", r.Method, "path", r.URL.Path, "attempts", ce.Attempts, "reason", ce.Reason.String(), "err", ce.Err)
		if errors.Is(err, context.DeadlineExceeded) {
			writeErrJSON(w, http.StatusGatewayTimeout, "deadline", err)
			return
		}
		// The client is usually gone; the status is for the access log.
		writeErrJSON(w, StatusClientClosedRequest, "cancelled", err)
	case errors.As(err, &ue):
		// Never a 200: the write is visible but its log record may be lost.
		s.log.Error("commit outcome unknown",
			"method", r.Method, "path", r.URL.Path, "err", ue.Err)
		writeErrJSON(w, http.StatusServiceUnavailable, "outcome-unknown", err)
	case errors.As(err, &le):
		// Nothing was written, and nothing will be until the log is
		// replaced: the update failed at the door, after one attempt.
		s.log.Error("commit log failed",
			"method", r.Method, "path", r.URL.Path, "err", le.Err)
		writeErrJSON(w, http.StatusServiceUnavailable, "log-failed", err)
	case errors.As(err, &pe):
		s.metrics.Panics.Add(1)
		s.log.Error("transaction body panic contained",
			"method", r.Method, "path", r.URL.Path, "value", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		writeErrJSON(w, http.StatusInternalServerError, "internal", errors.New("internal error"))
	case errors.Is(err, ErrNotFound):
		s.metrics.UserFails.Add(1)
		writeErrJSON(w, http.StatusNotFound, "not-found", err)
	case errors.Is(err, ErrExists):
		s.metrics.UserFails.Add(1)
		writeErrJSON(w, http.StatusConflict, "exists", err)
	case errors.Is(err, ErrInsufficient), errors.Is(err, ErrInsufficientHold):
		s.metrics.UserFails.Add(1)
		writeErrJSON(w, http.StatusConflict, "insufficient", err)
	case errors.Is(err, ErrBadAmount):
		s.metrics.UserFails.Add(1)
		writeErrJSON(w, http.StatusBadRequest, "bad-request", err)
	default:
		s.log.Error("unclassified request error", "method", r.Method, "path", r.URL.Path, "err", err)
		writeErrJSON(w, http.StatusInternalServerError, "internal", err)
	}
}

// errBody is the uniform JSON error envelope.
type errBody struct {
	Error  string `json:"error"`
	Detail string `json:"detail"`
}

func writeErrJSON(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errBody{Error: kind, Detail: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decode parses the JSON request body, answering 400 itself on malformed
// input. Bodies are tiny; 1MB bounds hostile ones.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErrJSON(w, http.StatusBadRequest, "bad-json", err)
		return false
	}
	return true
}
