package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/stm/stmtest"
)

// Allocations per request through the full handler stack, the server alone:
// no sockets, no client, one reused *http.Request with a rewound body and a
// fresh httptest.ResponseRecorder per request (the recorder, its header map
// and its buffer are the harness's share, identical for every route). The
// benchmark's go.allocs_per_op is client plus server; this is the server's
// part of it. Pinned at the values measured once the canonical request body
// was scanned without encoding/json, the hot replies appended, the three
// middleware layers folded into one frame and the deadline's timer armed only
// on a wait: with encoding/json, a statusWriter and a context.WithTimeout per
// request the three routes measured 35, 33 and 20. A regression here means a
// per-request allocation crept back in.
var handlerAllocBudgets = []struct {
	name, method, path, body string
	budget                   float64
}{
	{"transfer", "POST", "/v1/transfer", `{"from":"0","to":"1","amount":1}`, 15},
	{"deposit", "POST", "/v1/deposit", `{"account":"0","amount":1}`, 13},
	{"account", "GET", "/v1/accounts/0", ``, 11},
}

// handlerRequest replays one budget case through h: a reused *http.Request
// whose body is rewound per call and a fresh recorder, as the server alone
// sees a keep-alive connection's requests.
func handlerRequest(tb testing.TB, h http.Handler, method, path, body string) func() {
	r := strings.NewReader(body)
	req := httptest.NewRequest(method, path, r)
	rc := io.NopCloser(r)
	return func() {
		r.Reset(body)
		req.Body = rc
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			tb.Fatalf("%s %s: %d %s", method, path, rr.Code, rr.Body)
		}
	}
}

// allocServer is the server the budgets and BenchmarkHandler run against. No
// watchdog: AllocsPerRun counts the whole process, and a sampling goroutine
// would add its own.
func allocServer(tb testing.TB) http.Handler {
	s, err := server.New(server.Config{Engine: "twm", Accounts: 2, InitialBalance: 1 << 40, WatchdogEvery: -1, Logger: quietLogger()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s.Handler()
}

func TestAllocsHandler(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	stmtest.CheckGoroutines(t)
	h := allocServer(t)
	for _, c := range handlerAllocBudgets {
		t.Run(c.method+" "+c.path, func(t *testing.T) {
			serve := handlerRequest(t, h, c.method, c.path, c.body)
			serve() // warm the descriptor pool and the mux
			got := testing.AllocsPerRun(200, serve)
			t.Logf("%s %s: %.0f allocs/request", c.method, c.path, got)
			if got > c.budget {
				t.Errorf("%s %s: %.0f allocs/request, budget %.0f", c.method, c.path, got, c.budget)
			}
		})
	}
}

// BenchmarkHandler prices one request through the full handler stack, the
// server alone, in TestAllocsHandler's shape: ns/request for a transfer, a
// deposit and an account read.
func BenchmarkHandler(b *testing.B) {
	h := allocServer(b)
	for _, c := range handlerAllocBudgets {
		b.Run(c.name, func(b *testing.B) {
			serve := handlerRequest(b, h, c.method, c.path, c.body)
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
