package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engines"
	"repro/internal/server"
	"repro/internal/stm/stmtest"
)

// quietLogger discards log output (the tests deliberately provoke error-level
// events — panics, overloads — that would spam the test log).
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer builds a server plus cleanup; tests layer their own config on
// top of quiet logging and leak checking.
func newTestServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	stmtest.CheckGoroutines(t)
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// post sends a JSON body to the handler and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

// TestCommitPath walks the happy path end to end: create, deposit, transfer,
// reserve/capture, read, audit — every 2xx backed by a committed transaction.
func TestCommitPath(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm"})
	h := s.Handler()

	if rr := post(h, "/v1/accounts", `{"id":"alice","balance":100}`); rr.Code != http.StatusCreated {
		t.Fatalf("create alice: %d %s", rr.Code, rr.Body)
	}
	if rr := post(h, "/v1/accounts", `{"id":"bob","balance":50}`); rr.Code != http.StatusCreated {
		t.Fatalf("create bob: %d %s", rr.Code, rr.Body)
	}
	if rr := post(h, "/v1/transfer", `{"from":"alice","to":"bob","amount":30}`); rr.Code != http.StatusOK {
		t.Fatalf("transfer: %d %s", rr.Code, rr.Body)
	}
	if rr := post(h, "/v1/deposit", `{"account":"bob","amount":5}`); rr.Code != http.StatusOK {
		t.Fatalf("deposit: %d %s", rr.Code, rr.Body)
	}
	if rr := post(h, "/v1/reserve", `{"account":"bob","amount":25}`); rr.Code != http.StatusOK {
		t.Fatalf("reserve: %d %s", rr.Code, rr.Body)
	}
	if rr := post(h, "/v1/capture", `{"account":"bob","amount":25}`); rr.Code != http.StatusOK {
		t.Fatalf("capture: %d %s", rr.Code, rr.Body)
	}

	rr := get(h, "/v1/accounts/bob")
	if rr.Code != http.StatusOK {
		t.Fatalf("get bob: %d %s", rr.Code, rr.Body)
	}
	var view struct {
		Balance, Held, Available int64
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Balance != 60 || view.Held != 0 || view.Available != 60 {
		t.Fatalf("bob = %+v, want balance 60 held 0", view)
	}

	rr = get(h, "/v1/audit")
	var audit struct {
		Accounts     int
		TotalBalance int64
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &audit); err != nil {
		t.Fatal(err)
	}
	// 100+50 seeded, 5 deposited, 25 captured (destroyed) → 130 across 2.
	if audit.Accounts != 2 || audit.TotalBalance != 130 {
		t.Fatalf("audit = %+v", audit)
	}
	if got := s.Metrics().Commits.Load(); got == 0 {
		t.Fatal("no commits counted")
	}
}

// TestUserErrors checks the domain refusals map to their statuses and are
// never retried (one transaction attempt each, no durable change).
func TestUserErrors(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm"})
	h := s.Handler()
	post(h, "/v1/accounts", `{"id":"a","balance":10}`)
	post(h, "/v1/accounts", `{"id":"b","balance":10}`)

	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/transfer", `{"from":"a","to":"b","amount":99}`, http.StatusConflict},    // insufficient
		{"/v1/transfer", `{"from":"ghost","to":"b","amount":1}`, http.StatusNotFound}, // unknown account
		{"/v1/transfer", `{"from":"a","to":"a","amount":1}`, http.StatusBadRequest},   // self-transfer
		{"/v1/transfer", `{"from":"a","to":"b","amount":-5}`, http.StatusBadRequest},  // negative
		{"/v1/transfer", `{"from":`, http.StatusBadRequest},                           // malformed JSON
		{"/v1/accounts", `{"id":"a","balance":1}`, http.StatusConflict},               // duplicate create
		{"/v1/release", `{"account":"a","amount":1}`, http.StatusConflict},            // nothing held
		{"/v1/capture", `{"account":"a","amount":1}`, http.StatusConflict},            // nothing held
	}
	for _, c := range cases {
		if rr := post(h, c.path, c.body); rr.Code != c.want {
			t.Errorf("POST %s %s: got %d, want %d (%s)", c.path, c.body, rr.Code, c.want, rr.Body)
		}
	}
	// Failed requests made no durable change.
	rr := get(h, "/v1/accounts/a")
	var view struct{ Balance int64 }
	_ = json.Unmarshal(rr.Body.Bytes(), &view)
	if view.Balance != 10 {
		t.Fatalf("balance after refused requests = %d, want 10", view.Balance)
	}
}

// TestOverload429 saturates the admission gate and checks updates shed with
// 429 + Retry-After while read-only requests sail through (they bypass the
// gate by design).
func TestOverload429(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm", GateLimit: 1, GateWait: 0, Accounts: 2, InitialBalance: 100})
	h := s.Handler()

	// Occupy the gate's only slot directly — equivalent to one long-running
	// admitted update.
	if err := s.Gate().Acquire(nil); err != nil {
		t.Fatal(err)
	}
	defer s.Gate().Release()

	rr := post(h, "/v1/transfer", `{"from":"0","to":"1","amount":1}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated transfer: %d %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Metrics().Sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d", got)
	}
	// Reads bypass the gate.
	if rr := get(h, "/v1/accounts/0"); rr.Code != http.StatusOK {
		t.Fatalf("read under saturation: %d", rr.Code)
	}

	// Retry-After rounds the gate wait up: a client told to come back 1s
	// into a 1.5s wait returns before a slot can have drained. (The request
	// sits out the 1.5s it is configured to queue for.)
	slow := newTestServer(t, server.Config{Engine: "twm", GateLimit: 1, GateWait: 1500 * time.Millisecond, Accounts: 2, InitialBalance: 100, RequestTimeout: -1})
	if err := slow.Gate().Acquire(nil); err != nil {
		t.Fatal(err)
	}
	defer slow.Gate().Release()
	rr = post(slow.Handler(), "/v1/transfer", `{"from":"0","to":"1","amount":1}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated transfer after the wait: %d %s", rr.Code, rr.Body)
	}
	if got := rr.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q for a 1.5s gate wait, want \"2\"", got)
	}
}

// TestCancelMidRetry pins the 499 path: an engine under forced commit
// failures retries until the client disconnects, and the (unsendable)
// response records the cancellation rather than hanging or reporting success.
func TestCancelMidRetry(t *testing.T) {
	// Every update commit fails: the transfer can only end by cancellation.
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 1, CommitFailProb: 1})
	s := newTestServer(t, server.Config{TM: tm, Accounts: 2, InitialBalance: 100, RequestTimeout: -1})
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/transfer", strings.NewReader(`{"from":"0","to":"1","amount":1}`)).WithContext(ctx)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != server.StatusClientClosedRequest {
		t.Fatalf("cancelled transfer: %d %s, want 499", rr.Code, rr.Body)
	}
	if got := s.Metrics().Cancels.Load(); got != 1 {
		t.Fatalf("cancels = %d", got)
	}
}

// TestDeadline504: the per-request transaction deadline bounds a livelocked
// transaction; the client gets a 504, not a hung connection.
func TestDeadline504(t *testing.T) {
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 1, CommitFailProb: 1})
	s := newTestServer(t, server.Config{TM: tm, Accounts: 2, InitialBalance: 100, RequestTimeout: 50 * time.Millisecond})
	rr := post(s.Handler(), "/v1/transfer", `{"from":"0","to":"1","amount":1}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline transfer: %d %s, want 504", rr.Code, rr.Body)
	}
}

// TestDeadlineWhileQueuedAtGate: the request deadline arms its timer when the
// request starts waiting at the gate, so a request queued behind a held slot
// answers 504 at its own deadline, not at the end of the gate's longer wait,
// and leaves nothing behind (newTestServer checks goroutines).
func TestDeadlineWhileQueuedAtGate(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 100,
		GateLimit: 1, GateWait: time.Second, RequestTimeout: timeout})
	if err := s.Gate().Acquire(nil); err != nil {
		t.Fatal(err)
	}
	defer s.Gate().Release()
	start := time.Now()
	rr := post(s.Handler(), "/v1/transfer", `{"from":"0","to":"1","amount":1}`)
	took := time.Since(start)
	if rr.Code != http.StatusGatewayTimeout || !strings.Contains(rr.Body.String(), `"deadline"`) {
		t.Fatalf("queued transfer: %d %s, want 504 deadline", rr.Code, rr.Body)
	}
	if took < timeout || took > 10*timeout {
		t.Fatalf("queued transfer answered after %v, want about %v (the gate waits 1s)", took, timeout)
	}
	if n := s.Gate().Cancels(); n != 1 {
		t.Fatalf("gate cancels = %d, want 1", n)
	}
}

// TestDebugAccessLog: with Debug enabled on the logger, every request —
// committed, refused, unrouted or panicking — writes one "request" line with
// its method, path, status and duration.
func TestDebugAccessLog(t *testing.T) {
	var logged bytes.Buffer
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 100, Debug: true,
		Logger: slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelDebug}))})
	h := s.Handler()
	post(h, "/v1/transfer", `{"from":"0","to":"1","amount":1}`)
	post(h, "/v1/transfer", `{"from":"0","to":"1","amount":1000}`)
	get(h, "/v1/accounts/0")
	get(h, "/v1/nothing")
	post(h, "/debugz/panic", `{}`)
	var lines []string
	for _, l := range strings.Split(logged.String(), "\n") {
		if strings.Contains(l, "msg=request ") {
			lines = append(lines, l)
		}
	}
	want := []string{
		"method=POST path=/v1/transfer status=200 dur=",
		"method=POST path=/v1/transfer status=409 dur=",
		"method=GET path=/v1/accounts/0 status=200 dur=",
		"method=GET path=/v1/nothing status=404 dur=",
		"method=POST path=/debugz/panic status=500 dur=",
	}
	if len(lines) != len(want) {
		t.Fatalf("%d request lines, want %d:\n%s", len(lines), len(want), logged.String())
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("request line %d = %q, want it to contain %q", i, lines[i], w)
		}
	}
}

// TestCancelLogsAttemptsAndReason: a 504 says in the log how many attempts the
// transaction burned and why the last one aborted, while the response body
// stays the CancelledError's own text.
func TestCancelLogsAttemptsAndReason(t *testing.T) {
	var logged bytes.Buffer
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{Seed: 1, CommitFailProb: 1})
	s := newTestServer(t, server.Config{TM: tm, Accounts: 2, InitialBalance: 100, RequestTimeout: 50 * time.Millisecond,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	rr := post(s.Handler(), "/v1/transfer", `{"from":"0","to":"1","amount":1}`)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline transfer: %d %s, want 504", rr.Code, rr.Body)
	}
	if strings.Contains(rr.Body.String(), "chaos") {
		t.Errorf("abort reason leaked into the response body: %s", rr.Body)
	}
	for _, want := range []string{"transaction cancelled", "attempts=", "reason=chaos"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logged.String())
		}
	}
}

// TestPanicContained pins the server consequence of panic containment: a
// panic inside a transaction body answers 500 (no hang), the process keeps
// serving, and — the descriptor-leak fix — the engine's pool survives
// repeated panics.
func TestPanicContained(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 100, Debug: true})
	h := s.Handler()

	for i := 0; i < 8; i++ {
		rr := post(h, "/debugz/txpanic", `{}`)
		if rr.Code != http.StatusInternalServerError {
			t.Fatalf("txpanic round %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	if got := s.Metrics().Panics.Load(); got != 8 {
		t.Fatalf("panics = %d, want 8", got)
	}
	// A handler-level panic is caught by the recovery middleware instead.
	if rr := post(h, "/debugz/panic", `{}`); rr.Code != http.StatusInternalServerError {
		t.Fatalf("handler panic: %d", rr.Code)
	}
	// The server still serves and commits after nine contained panics.
	if rr := post(h, "/v1/transfer", `{"from":"0","to":"1","amount":1}`); rr.Code != http.StatusOK {
		t.Fatalf("transfer after panics: %d %s", rr.Code, rr.Body)
	}
}

// TestPanicContainedLogsStack: the contained panic's log line carries the
// panic value and a stack that still shows the panicking body (the recover
// runs in a deferred call, before the frames are gone), and the gate slot the
// request held is back by the time the 500 is written.
func TestPanicContainedLogsStack(t *testing.T) {
	var logged bytes.Buffer
	s := newTestServer(t, server.Config{Engine: "twm", Debug: true,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	if rr := post(s.Handler(), "/debugz/txpanic", `{}`); rr.Code != http.StatusInternalServerError {
		t.Fatalf("txpanic: %d %s", rr.Code, rr.Body)
	}
	for _, want := range []string{"transaction body panic contained", "debugz: transaction body panic drill", "handleTxPanic"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logged.String())
		}
	}
	if n := s.Gate().InFlight(); n != 0 {
		t.Fatalf("gate in-flight = %d after a contained panic, want 0", n)
	}
}

// TestHealthz checks the watchdog snapshot document and its gate/server
// counter sections.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 100})
	h := s.Handler()
	post(h, "/v1/transfer", `{"from":"0","to":"1","amount":1}`)

	rr := get(h, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", rr.Code, rr.Body)
	}
	var view struct {
		Status   string
		Watchdog *struct {
			Targets []struct{ Name string }
		}
		Gate   struct{ Limit int }
		Server struct{ Commits uint64 }
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, rr.Body)
	}
	if view.Status != "ok" {
		t.Fatalf("status = %q", view.Status)
	}
	if view.Watchdog == nil || len(view.Watchdog.Targets) != 1 || view.Watchdog.Targets[0].Name != "twm" {
		t.Fatalf("watchdog section = %+v", view.Watchdog)
	}
	if view.Gate.Limit == 0 || view.Server.Commits == 0 {
		t.Fatalf("gate/server sections = %+v", view)
	}
	if rr := get(h, "/statsz"); rr.Code != http.StatusOK || !bytes.Contains(rr.Body.Bytes(), []byte("Commits")) {
		t.Fatalf("statsz: %d %s", rr.Code, rr.Body)
	}
}

// TestGracefulShutdownDrains runs the real lifecycle over a TCP listener:
// concurrent traffic, shutdown mid-stream, every in-flight request answered,
// no goroutine left behind (the leak check covers the HTTP server and the
// watchdog).
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 8, InitialBalance: 1000})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 5*time.Second) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body := fmt.Sprintf(`{"from":"%d","to":"%d","amount":1}`, g, (g+1)%8)
				resp, err := client.Post(base+"/v1/transfer", "application/json", strings.NewReader(body))
				if err != nil {
					return // the listener closed mid-stream; that's the point
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond) // let traffic get in flight
	cancel()
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want clean drain", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no transfer committed before shutdown: %v", statuses)
	}
	for code := range statuses {
		if code != http.StatusOK {
			t.Errorf("unexpected status %d during drain: %v", code, statuses)
		}
	}
	client.CloseIdleConnections()
}

// acceptSignal reports each accepted connection, so a test knows the server
// holds it before draining starts.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestDrainRefusesUnusedConnection: a connection that has sent nothing when
// draining starts cannot hold the drain. net/http's Shutdown counts such a
// connection as active until it is 5 s old, so without the refusal Serve
// waits out its whole window and reports "drain incomplete".
func TestDrainRefusesUnusedConnection(t *testing.T) {
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := acceptSignal{Listener: ln, accepted: make(chan struct{}, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	const window = 3 * time.Second
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, sig, window) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-sig.accepted
	start := time.Now()
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after %v, want a clean drain", err, time.Since(start))
	}
	if took := time.Since(start); took > window/2 {
		t.Fatalf("drain took %v of a %v window", took, window)
	}
	conn.SetReadDeadline(time.Now().Add(window))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("unused connection read (%d, %v), want EOF: the drain closes it", n, err)
	}
}
