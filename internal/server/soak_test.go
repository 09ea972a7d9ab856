package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engines"
	"repro/internal/server"
	"repro/internal/stm/stmtest"
	"repro/internal/xrand"
)

// chaosSeed returns the seed a soak runs under: def normally, or
// TWM_CHAOS_SEED when set (replaying a failure). Always logged, so a failing
// soak names the exact seed that reproduces it.
func chaosSeed(t *testing.T, def uint64) uint64 {
	t.Helper()
	seed := def
	if env := os.Getenv("TWM_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("bad TWM_CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %#x (replay with TWM_CHAOS_SEED=%#x)", seed, seed)
	return seed
}

// TestServerChaosSoak drives the full HTTP stack — real TCP listener, real
// request contexts — over a fault-injected engine: spurious mid-transaction
// aborts, barrier delays, forced commit failures and commit stalls, exactly
// the schedule chaos manufactures for the engine soaks, now with the server's
// request→transaction lifecycle on top. Invariants checked:
//
//   - conservation: transfers move money, reserve/release only shuffle the
//     held slice, so the audit's TotalBalance equals the seeded total and
//     TotalHeld equals (committed reserves − committed releases) as counted
//     from 2xx responses — a 200 is a commit promise, chaos or no chaos;
//   - liveness: the soak commits a nonzero number of updates through the
//     noise (the contention machinery digests injected failures);
//   - no leaks: every HTTP goroutine and the watchdog wind down with the
//     test.
func TestServerChaosSoak(t *testing.T) {
	stmtest.CheckGoroutines(t)
	seed := chaosSeed(t, 0xC0FFEE)

	const accounts = 16
	const initial = 1_000
	tm := chaos.New(engines.MustNew("twm"), chaos.Options{
		Seed:           seed,
		AbortProb:      0.02,
		DelayProb:      0.02,
		CommitFailProb: 0.05,
		StallProb:      0.01,
	})
	s, err := server.New(server.Config{
		TM:             tm,
		Accounts:       accounts,
		InitialBalance: initial,
		GateLimit:      8,
		GateWait:       50 * time.Millisecond,
		RequestTimeout: time.Second,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := hs.Client()

	workers := 8
	perWorker := 60
	if testing.Short() {
		workers, perWorker = 4, 30
	}
	var reservedCommitted, releasedCommitted atomic.Int64
	var statuses [600]atomic.Uint64 // indexed by HTTP status
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(xrand.Mix(seed + uint64(w) + 1))
			for i := 0; i < perWorker; i++ {
				var path, body string
				kind := rng.Intn(10)
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				for to == from {
					to = rng.Intn(accounts)
				}
				switch {
				case kind < 6: // transfers dominate
					path = "/v1/transfer"
					body = fmt.Sprintf(`{"from":"%d","to":"%d","amount":%d}`, from, to, 1+rng.Intn(20))
				case kind < 8:
					path = "/v1/reserve"
					body = fmt.Sprintf(`{"account":"%d","amount":%d}`, from, 1+rng.Intn(10))
				case kind < 9:
					path = "/v1/release"
					body = fmt.Sprintf(`{"account":"%d","amount":%d}`, from, 1+rng.Intn(10))
				default: // mv-permissive read-only scan under the churn
					resp, err := client.Get(hs.URL + "/v1/audit")
					if err != nil {
						t.Errorf("audit: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					statuses[resp.StatusCode].Add(1)
					continue
				}
				resp, err := client.Post(hs.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				statuses[resp.StatusCode].Add(1)
				if resp.StatusCode == http.StatusOK {
					var amt struct{ Amount int64 }
					_ = json.Unmarshal([]byte(body), &amt)
					switch path {
					case "/v1/reserve":
						reservedCommitted.Add(amt.Amount)
					case "/v1/release":
						releasedCommitted.Add(amt.Amount)
					}
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	var counts []string
	for code := range statuses {
		if n := statuses[code].Load(); n > 0 {
			counts = append(counts, fmt.Sprintf("%d:%d", code, n))
		}
	}
	t.Logf("status counts: %s", strings.Join(counts, " "))
	if statuses[http.StatusOK].Load() == 0 {
		t.Fatal("no request committed through the chaos")
	}
	for code := range statuses {
		switch code {
		case http.StatusOK, http.StatusConflict, http.StatusTooManyRequests,
			http.StatusGatewayTimeout, server.StatusClientClosedRequest:
		default:
			if n := statuses[code].Load(); n > 0 {
				t.Errorf("unexpected status %d (%d times)", code, n)
			}
		}
	}

	// Conservation audit, read through the API like any client would.
	resp, err := client.Get(hs.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	var audit struct {
		Accounts                int
		TotalBalance, TotalHeld int64
	}
	if err := json.NewDecoder(resp.Body).Decode(&audit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if audit.Accounts != accounts || audit.TotalBalance != accounts*initial {
		t.Errorf("money not conserved: %+v, want %d across %d accounts", audit, accounts*initial, accounts)
	}
	if want := reservedCommitted.Load() - releasedCommitted.Load(); audit.TotalHeld != want {
		t.Errorf("held = %d, want %d (committed reserves %d − releases %d)",
			audit.TotalHeld, want, reservedCommitted.Load(), releasedCommitted.Load())
	}
}
