package loadgen_test

import (
	"context"
	"io"
	"log/slog"
	"net"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/stm"
	"repro/internal/stm/stmtest"
)

// serveAndRun boots a server for engine on a loopback listener, offers cfg's
// load with loadgen.Run, drains the server through Serve's context, and
// returns the report together with the engine's counters after the drain.
func serveAndRun(t *testing.T, engine string, cfg loadgen.Config) (loadgen.Result, stm.Snapshot) {
	t.Helper()
	s, err := server.New(server.Config{
		Engine:         engine,
		Accounts:       cfg.Accounts,
		InitialBalance: 1 << 30, // deep pockets: domain refusals are not on trial
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln, 5*time.Second) }()

	res, runErr := loadgen.Run(context.Background(), "http://"+ln.Addr().String(), cfg)
	stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("%s: serve: %v", engine, err)
	}
	if runErr != nil {
		t.Fatalf("%s: load: %v", engine, runErr)
	}
	return res, s.TM().Stats().Snapshot()
}

// TestInProcessSmoke is the CI gate for the whole serving pipeline: boot a
// real server per engine on loopback, offer a second of open-loop mixed
// traffic, and require nonzero commits, no unexplained failures, and a fully
// drained goroutine set.
func TestInProcessSmoke(t *testing.T) {
	stmtest.CheckGoroutines(t)
	engines := []string{"twm", "tl2"}
	if testing.Short() {
		engines = engines[:1]
	}
	cfg := loadgen.Config{
		Rate:      200,
		Duration:  time.Second,
		Accounts:  64,
		ZipfS:     1.1,
		UpdatePct: 0.5,
		Seed:      42,
	}
	for _, engine := range engines {
		res, snap := serveAndRun(t, engine, cfg)
		t.Logf("%s: sent=%d ok=%d shed=%d cancel=%d err=%d p50=%.2fms p99=%.2fms",
			engine, res.All.Sent, res.All.OK, res.All.Shed, res.All.Cancelled,
			res.All.Errors, res.All.P50ms, res.All.P99ms)
		if res.All.OK == 0 {
			t.Errorf("%s: no request committed", engine)
		}
		if res.All.Errors > 0 {
			t.Errorf("%s: %d transport/5xx errors under nominal load", engine, res.All.Errors)
		}
		if snap.Commits+snap.ROCommits == 0 {
			t.Errorf("%s: engine counted no commits", engine)
		}
		if res.All.OK > 0 && res.All.P50ms <= 0 {
			t.Errorf("%s: p50 not computed", engine)
		}
	}
}

// TestRunSeedReplay pins the open-loop generator's determinism: the same seed
// must produce the same request sequence (counted per class), or
// TWM_CHAOS_SEED-style replay debugging is fiction.
func TestRunSeedReplay(t *testing.T) {
	stmtest.CheckGoroutines(t)
	cfg := loadgen.Config{
		Rate:      400,
		Duration:  500 * time.Millisecond,
		Accounts:  32,
		UpdatePct: 0.3,
		Seed:      7,
	}
	a, _ := serveAndRun(t, "twm", cfg)
	b, _ := serveAndRun(t, "twm", cfg)
	if a.Update.Sent != b.Update.Sent || a.ReadOnly.Sent != b.ReadOnly.Sent {
		t.Errorf("same seed, different schedule: %d/%d updates, %d/%d reads",
			a.Update.Sent, b.Update.Sent, a.ReadOnly.Sent, b.ReadOnly.Sent)
	}
}
