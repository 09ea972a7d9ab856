package server_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/transcript.golden from the current handler")

// transcriptStep is one scripted request: its route, body, and the context
// the request carries (nil: the recorder's background context).
type transcriptStep struct {
	name, method, path, body string
	ctx                      context.Context
}

// The request bodies every decode variant is built from: the canonical form
// the fast path accepts, then each non-canonical spelling that must take the
// encoding/json fallback and answer exactly as it always has.
var (
	transferBodies = []struct{ name, body string }{
		{"canonical", `{"from":"0","to":"1","amount":1}`},
		{"whitespace", "{ \"from\": \"0\",\n\t\"to\": \"1\", \"amount\": 1 }"},
		{"reordered", `{"amount":1,"to":"1","from":"0"}`},
		{"escaped", `{"from":"\u0030","to":"\u0031","amount":1}`},
		{"case-folded", `{"FROM":"0","To":"1","AMOUNT":1}`},
		{"duplicate", `{"from":"2","from":"0","to":"1","amount":1}`},
		{"trailing-bytes", `{"from":"0","to":"1","amount":1}xyz`},
		{"trailing-newline", "{\"from\":\"0\",\"to\":\"1\",\"amount\":1}\n"},
		{"leading-zero", `{"from":"0","to":"1","amount":01}`},
		{"negative-zero", `{"from":"0","to":"1","amount":-0}`},
		{"overflow", `{"from":"0","to":"1","amount":9223372036854775808}`},
		{"underflow", `{"from":"0","to":"1","amount":-9223372036854775809}`},
		{"max-int64", `{"from":"0","to":"1","amount":9223372036854775807}`},
		{"float", `{"from":"0","to":"1","amount":1.0}`},
		{"exponent", `{"from":"0","to":"1","amount":1e2}`},
		{"string-amount", `{"from":"0","to":"1","amount":"1"}`},
		{"number-id", `{"from":0,"to":"1","amount":1}`},
		{"null-id", `{"from":null,"to":"1","amount":1}`},
		{"unknown-field", `{"from":"0","to":"1","amount":1,"memo":"x"}`},
		{"missing-field", `{"from":"0","to":"1"}`},
		{"empty-object", `{}`},
		{"empty-body", ``},
		{"truncated", `{"from":`},
		{"array", `[]`},
		{"null", `null`},
		{"invalid-utf8", "{\"from\":\"\xff\",\"to\":\"1\",\"amount\":1}"},
		{"raw-control", "{\"from\":\"0\t\",\"to\":\"1\",\"amount\":1}"},
		{"oversize", `{"from":"` + strings.Repeat("a", 1<<20) + `","to":"1","amount":1}`},
		{"self", `{"from":"0","to":"0","amount":1}`},
		{"negative", `{"from":"0","to":"1","amount":-5}`},
		{"insufficient", `{"from":"0","to":"1","amount":1000000}`},
		{"unknown-account", `{"from":"ghost","to":"1","amount":1}`},
	}
	moveBodies = []struct{ name, body string }{
		{"canonical", `{"account":"0","amount":7}`},
		{"whitespace", `{"account": "0", "amount": 7}`},
		{"reordered", `{"amount":7,"account":"0"}`},
		{"case-folded", `{"Account":"0","Amount":7}`},
		{"leading-zero", `{"account":"0","amount":007}`},
		{"overflow", `{"account":"0","amount":99999999999999999999}`},
		{"unknown-field", `{"account":"0","amount":7,"x":1}`},
		{"trailing-bytes", `{"account":"0","amount":7}}`},
		{"zero", `{"account":"0","amount":0}`},
		{"unknown-account", `{"account":"ghost","amount":7}`},
	}
	createBodies = []struct{ name, body string }{
		{"canonical", `{"id":"c1","balance":40}`},
		{"reordered", `{"balance":40,"id":"c2"}`},
		{"escaped-id", `{"id":"a\u003cb","balance":1}`},
		{"quote-id", `{"id":"q\"x","balance":2}`},
		{"non-ascii-id", `{"id":"é","balance":3}`},
		{"html-id", `{"id":"x&y>z","balance":4}`},
		{"exists", `{"id":"c1","balance":40}`},
		{"negative-balance", `{"id":"c3","balance":-1}`},
		{"missing-id", `{"balance":5}`},
		{"case-folded", `{"ID":"c4","Balance":5}`},
		{"unknown-field", `{"id":"c5","balance":5,"owner":"x"}`},
		{"leading-zero", `{"id":"c6","balance":00}`},
	}
)

// TestGoldenTranscript drives every route and every status of the error
// taxonomy through Handler() and compares status, headers and body byte for
// byte with testdata/transcript.golden. The golden file was recorded from the
// encoding/json handler; the fixed-shape decoder and append encoders must
// reproduce it exactly. Regenerate (only for an intended wire change) with
// go test ./internal/server/ -run TestGoldenTranscript -update-transcript.
func TestGoldenTranscript(t *testing.T) {
	var got strings.Builder
	record := func(h http.Handler, st transcriptStep) {
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		if st.ctx != nil {
			req = req.WithContext(st.ctx)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		res := rr.Result()
		reqBody := strconv.Quote(st.body)
		if len(st.body) > 256 {
			reqBody = fmt.Sprintf("<%d bytes>", len(st.body))
		}
		fmt.Fprintf(&got, "=== %s\n%s %s %s\n%d\n", st.name, st.method, st.path, reqBody, res.StatusCode)
		keys := make([]string, 0, len(res.Header))
		for k := range res.Header {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(&got, "%s: %q\n", k, res.Header[k])
		}
		fmt.Fprintf(&got, "%s\n\n", strconv.Quote(rr.Body.String()))
	}

	// The main server: three accounts, no watchdog (its snapshot is
	// time-dependent), the fault drills on, one gate slot so the test can
	// saturate it.
	s := newTestServer(t, server.Config{Engine: "twm", Accounts: 3, InitialBalance: 100,
		WatchdogEvery: -1, Debug: true, GateLimit: 1})
	h := s.Handler()
	for _, b := range transferBodies {
		record(h, transcriptStep{name: "transfer " + b.name, method: "POST", path: "/v1/transfer", body: b.body})
	}
	for _, route := range []string{"deposit", "reserve", "release", "capture"} {
		for _, b := range moveBodies {
			record(h, transcriptStep{name: route + " " + b.name, method: "POST", path: "/v1/" + route, body: b.body})
		}
	}
	for _, b := range createBodies {
		record(h, transcriptStep{name: "create " + b.name, method: "POST", path: "/v1/accounts", body: b.body})
	}
	for _, id := range []string{"0", "1", "c1", "a%3Cb", "q%22x", "%C3%A9", "x&y%3Ez", "ghost"} {
		record(h, transcriptStep{name: "account " + id, method: "GET", path: "/v1/accounts/" + id})
	}
	record(h, transcriptStep{name: "audit", method: "GET", path: "/v1/audit"})
	record(h, transcriptStep{name: "no route", method: "GET", path: "/v1/nothing"})
	record(h, transcriptStep{name: "wrong method", method: "GET", path: "/v1/transfer"})
	record(h, transcriptStep{name: "txpanic", method: "POST", path: "/debugz/txpanic", body: `{}`})
	record(h, transcriptStep{name: "handler panic", method: "POST", path: "/debugz/panic", body: `{}`})

	// 499: the client is gone before the first attempt.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	record(h, transcriptStep{name: "client gone", method: "POST", path: "/v1/transfer", body: transferBodies[0].body, ctx: gone})
	// 504 from a deadline the request arrived with.
	late, cancelLate := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelLate()
	record(h, transcriptStep{name: "arrived late", method: "POST", path: "/v1/transfer", body: transferBodies[0].body, ctx: late})
	record(h, transcriptStep{name: "read arrived late", method: "GET", path: "/v1/accounts/0", ctx: late})

	// 429: the only gate slot is held and the gate does not queue.
	if err := s.Gate().Acquire(nil); err != nil {
		t.Fatal(err)
	}
	record(h, transcriptStep{name: "shed", method: "POST", path: "/v1/transfer", body: transferBodies[0].body})
	record(h, transcriptStep{name: "read while shedding", method: "GET", path: "/v1/accounts/1"})
	s.Gate().Release()
	record(h, transcriptStep{name: "healthz", method: "GET", path: "/healthz"})
	record(h, transcriptStep{name: "statsz", method: "GET", path: "/statsz"})

	// 504 from the server's own deadline, expiring in the gate queue.
	q := newTestServer(t, server.Config{Engine: "twm", Accounts: 2, InitialBalance: 100, WatchdogEvery: -1,
		GateLimit: 1, GateWait: time.Second, RequestTimeout: 50 * time.Millisecond})
	if err := q.Gate().Acquire(nil); err != nil {
		t.Fatal(err)
	}
	record(q.Handler(), transcriptStep{name: "deadline in the gate queue", method: "POST", path: "/v1/transfer", body: transferBodies[0].body})
	q.Gate().Release()

	// 503 both ways: a failed fsync leaves the outcome unknown, and the
	// latched log then refuses every update at the door.
	var fail atomic.Bool
	restore := server.SetWALHooks(wal.Hooks{BeforeSync: func() error {
		if fail.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}})
	d := newTestServer(t, durableConfig(t.TempDir()))
	restore()
	fail.Store(true)
	dh := d.Handler()
	record(dh, transcriptStep{name: "durable outcome unknown", method: "POST", path: "/v1/deposit", body: `{"account":"0","amount":1}`})
	record(dh, transcriptStep{name: "durable log failed", method: "POST", path: "/v1/transfer", body: `{"from":"0","to":"1","amount":1}`})

	const golden = "testdata/transcript.golden"
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}
