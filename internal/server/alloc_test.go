package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// Allocations per request through the full handler stack, the server alone:
// no sockets, no client, one reused *http.Request with a rewound body and a
// fresh httptest.ResponseRecorder per request (the recorder, its header map
// and its buffer are the harness's share, identical for every route). The
// benchmark's go.allocs_per_op (about 107/op on srv-volatile) is client plus
// server; this is the server's part of it. Pinned at the values measured after
// update stopped spawning a goroutine per request: with the goroutine's
// closure, the Future and its channel the update routes measured 39 and 37.
// A regression here means a per-request allocation crept back in.
var handlerAllocBudgets = []struct {
	method, path, body string
	budget             float64
}{
	{"POST", "/v1/transfer", `{"from":"0","to":"1","amount":1}`, 35},
	{"POST", "/v1/deposit", `{"account":"0","amount":1}`, 33},
	{"GET", "/v1/accounts/0", ``, 20},
}

func TestAllocsHandler(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	// No watchdog: AllocsPerRun counts the whole process, and a sampling
	// goroutine would add its own.
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 1 << 40, WatchdogEvery: -1})
	h := s.Handler()
	for _, c := range handlerAllocBudgets {
		t.Run(c.method+" "+c.path, func(t *testing.T) {
			body := strings.NewReader(c.body)
			req := httptest.NewRequest(c.method, c.path, body)
			rc := io.NopCloser(body)
			serve := func() {
				body.Reset(c.body)
				req.Body = rc
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Fatalf("%s %s: %d %s", c.method, c.path, rr.Code, rr.Body)
				}
			}
			serve() // warm the descriptor pool and the mux
			if got := testing.AllocsPerRun(200, serve); got > c.budget {
				t.Errorf("%s %s: %.0f allocs/request, budget %.0f", c.method, c.path, got, c.budget)
			}
		})
	}
}
