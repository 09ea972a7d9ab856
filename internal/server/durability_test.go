package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/wal"
)

// durableConfig is the base durable-server config for restart tests: no
// watchdog and no periodic checkpoints, so the tests control every durability
// event themselves.
func durableConfig(dir string) server.Config {
	return server.Config{
		Engine:         "twm",
		Accounts:       4,
		InitialBalance: 1000,
		WALDir:         dir,
		SnapshotEvery:  -1,
		WatchdogEvery:  -1,
		Logger:         quietLogger(),
	}
}

func getBalance(t *testing.T, h http.Handler, id string) (balance, held int64) {
	t.Helper()
	rr := get(h, "/v1/accounts/"+id)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", id, rr.Code, rr.Body)
	}
	var v struct {
		Balance int64 `json:"balance"`
		Held    int64 `json:"held"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v.Balance, v.Held
}

func mustPost(t *testing.T, h http.Handler, path, body string) {
	t.Helper()
	rr := post(h, path, body)
	if rr.Code != http.StatusOK && rr.Code != http.StatusCreated {
		t.Fatalf("POST %s: %d %s", path, rr.Code, rr.Body)
	}
}

// TestDurableRestartZeroLoss is the acceptance walk: acknowledged writes (at
// the default fsync-per-commit policy) survive a clean restart via the final
// checkpoint, survive a second crash-style restart (log closed with no
// checkpoint) via log replay, and dynamically created accounts come back from
// their meta records.
func TestDurableRestartZeroLoss(t *testing.T) {
	dir := t.TempDir()

	s1, err := server.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := s1.Handler()
	mustPost(t, h, "/v1/deposit", `{"account":"0","amount":100}`)
	mustPost(t, h, "/v1/transfer", `{"from":"1","to":"2","amount":250}`)
	mustPost(t, h, "/v1/reserve", `{"account":"3","amount":50}`)
	mustPost(t, h, "/v1/accounts", `{"id":"extra","balance":500}`)
	mustPost(t, h, "/v1/deposit", `{"account":"extra","amount":25}`)
	s1.Close() // clean shutdown: final checkpoint + log close

	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot after clean close, got %v", snaps)
	}

	s2, err := server.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	h2 := s2.Handler()
	for _, tc := range []struct {
		id            string
		balance, held int64
	}{
		{"0", 1100, 0}, {"1", 750, 0}, {"2", 1250, 0}, {"3", 1000, 50}, {"extra", 525, 0},
	} {
		if b, hd := getBalance(t, h2, tc.id); b != tc.balance || hd != tc.held {
			t.Errorf("after restart, account %s: balance=%d held=%d, want %d/%d", tc.id, b, hd, tc.balance, tc.held)
		}
	}

	// Second generation: more acknowledged writes, then a crash-style stop —
	// the log is closed with no checkpoint, so the next boot must replay the
	// snapshot plus the post-checkpoint log suffix.
	mustPost(t, h2, "/v1/deposit", `{"account":"extra","amount":75}`)
	mustPost(t, h2, "/v1/release", `{"account":"3","amount":20}`)
	s2.WAL().Close()
	s2.Close() // checkpoint fails against the closed log; that is the crash shape

	s3, err := server.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("crash restart: %v", err)
	}
	defer s3.Close()
	h3 := s3.Handler()
	if b, _ := getBalance(t, h3, "extra"); b != 600 {
		t.Errorf("after crash restart, extra balance=%d, want 600", b)
	}
	if _, hd := getBalance(t, h3, "3"); hd != 30 {
		t.Errorf("after crash restart, account 3 held=%d, want 30", hd)
	}

	// The audit total is the conservation invariant across both restarts.
	rr := get(h3, "/v1/audit")
	var audit struct {
		Accounts     int   `json:"accounts"`
		TotalBalance int64 `json:"totalBalance"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &audit); err != nil {
		t.Fatal(err)
	}
	if audit.Accounts != 5 || audit.TotalBalance != 4*1000+100+500+25+75 {
		t.Errorf("audit after two restarts: %+v", audit)
	}
}

// TestDurableFailedFsyncAnswers503: under per-commit, an update whose fsync
// fails is installed in memory but not durable, so the server answers 503
// "outcome-unknown" — never 200. The log is latched from then on, so every
// later update is refused at the door: 503 "log-failed" after exactly one
// attempt, well inside the request timeout.
func TestDurableFailedFsyncAnswers503(t *testing.T) {
	var fail atomic.Bool
	defer server.SetWALHooks(wal.Hooks{BeforeSync: func() error {
		if fail.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}})()
	const timeout = 5 * time.Second
	cfg := durableConfig(t.TempDir())
	cfg.RequestTimeout = timeout
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	mustPost(t, h, "/v1/deposit", `{"account":"0","amount":100}`)

	fail.Store(true)
	kind := func(rr *httptest.ResponseRecorder) string {
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("decode %q: %v", rr.Body, err)
		}
		return body.Error
	}
	rr := post(h, "/v1/deposit", `{"account":"0","amount":100}`)
	if rr.Code != http.StatusServiceUnavailable || kind(rr) != "outcome-unknown" {
		t.Fatalf("deposit with a failed fsync: %d %s, want 503 outcome-unknown", rr.Code, rr.Body)
	}
	refusals := func() uint64 {
		return s.TM().Stats().Snapshot().ByReason[stm.ReasonDurability.String()]
	}
	for _, req := range [][2]string{
		{"/v1/deposit", `{"account":"1","amount":5}`},
		{"/v1/transfer", `{"from":"1","to":"2","amount":5}`},
	} {
		before, start := refusals(), time.Now()
		rr := post(h, req[0], req[1])
		if elapsed := time.Since(start); elapsed > timeout/5 {
			t.Errorf("%s after the failed fsync took %v, want a fast failure", req[0], elapsed)
		}
		if rr.Code != http.StatusServiceUnavailable || kind(rr) != "log-failed" {
			t.Errorf("%s after the failed fsync: %d %s, want 503 log-failed", req[0], rr.Code, rr.Body)
		}
		if n := refusals() - before; n != 1 {
			t.Errorf("%s after the failed fsync ran %d refused attempts, want exactly 1", req[0], n)
		}
	}
}

// TestDurableCheckpointPrune: an explicit checkpoint prunes the log down to
// the active segment, and a restart from snapshot+suffix reproduces the
// state.
func TestDurableCheckpointPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := server.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 10; i++ {
		mustPost(t, h, "/v1/transfer", `{"from":"0","to":"1","amount":10}`)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("checkpoint must prune to the active segment, got %v", segs)
	}
	mustPost(t, h, "/v1/transfer", `{"from":"0","to":"1","amount":5}`) // post-checkpoint suffix
	s.WAL().Close()
	s.Close()

	s2, err := server.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if b, _ := getBalance(t, s2.Handler(), "1"); b != 1105 {
		t.Errorf("account 1 after checkpointed restart: %d, want 1105", b)
	}
}

// TestSlowHeaderCutOff: a client that dribbles its request header must be cut
// off by ReadHeaderTimeout instead of parking a connection (and its goroutine)
// forever — the slow-loris regression for the http.Server hardening.
func TestSlowHeaderCutOff(t *testing.T) {
	s := newTestServer(t, server.Config{
		Engine: "twm", Accounts: 2, InitialBalance: 100,
		ReadHeaderTimeout: 150 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, time.Second) }()
	defer func() { cancel(); <-served }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send an eternally unfinished header and wait for the server to hang up.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered an unfinished header")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("server kept the slow-header connection for %v", waited)
	}
}
