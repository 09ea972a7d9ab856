package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// referenceDecode is the decoder every body has always gone through:
// encoding/json over the body behind the 1MB bound, unknown fields refused.
// decode must agree with it on every input.
func referenceDecode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErrJSON(w, http.StatusBadRequest, "bad-json", err)
		return false
	}
	return true
}

var errCut = errors.New("connection reset mid-body")

// fuzzBody is a request body as a client connection delivers it: in reads of
// at most chunk bytes, ending in io.EOF, or in errCut after cut bytes when cut
// falls inside the body.
type fuzzBody struct {
	b     []byte
	chunk int
	err   error
}

func newFuzzBody(b []byte, chunk, cut int) *fuzzBody {
	if cut >= 0 && cut < len(b) {
		return &fuzzBody{b: b[:cut], chunk: chunk, err: errCut}
	}
	return &fuzzBody{b: b, chunk: chunk, err: io.EOF}
}

func (f *fuzzBody) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, f.err
	}
	n := copy(p, f.b[:min(len(f.b), f.chunk)])
	f.b = f.b[n:]
	return n, nil
}

// FuzzDecodeRequest is the differential check of the fixed-shape decoder: for
// each of the three request bodies, decode must give the same struct, or the
// same 400 status, headers and body, as encoding/json with unknown fields
// refused — whatever the bytes, however the body arrives in reads, and
// wherever it breaks off.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"from":"0","to":"1","amount":1}`,
		`{"account":"17","amount":250}`,
		`{"id":"alice","balance":100}`,
		`{"amount":1,"to":"1","from":"0"}`,
		`{"balance":100,"id":"alice"}`,
		`{ "from": "0", "to": "1", "amount": 1 }`,
		"{\"account\":\"1\",\n\"amount\":2}",
		`{"id":"","balance":0}`,
		`{"id":"a<b","balance":1}`,
		`{"FROM":"0","To":"1","AMOUNT":1}`,
		`{"ID":"x","Balance":1}`,
		`{"from":"2","from":"0","to":"1","amount":1}`,
		`{"account":"1","amount":2,"amount":3}`,
		`{"from":"0","to":"1","amount":1}xyz`,
		"{\"id\":\"x\",\"balance\":1}\n",
		`{"from":"0","to":"1","amount":01}`,
		`{"account":"1","amount":-0}`,
		`{"from":"0","to":"1","amount":9223372036854775807}`,
		`{"from":"0","to":"1","amount":9223372036854775808}`,
		`{"id":"x","balance":-9223372036854775809}`,
		`{"account":"1","amount":999999999999999999}`,
		`{"account":"1","amount":1000000000000000000}`,
		`{"from":"0","to":"1","amount":1.5}`,
		`{"from":"0","to":"1","amount":1e3}`,
		`{"from":null,"to":"1","amount":1}`,
		`{"account":"1","amount":2,"memo":"x"}`,
		"{\"from\":\"\xff\",\"to\":\"1\",\"amount\":1}",
		"{\"id\":\"\xc3\xa9\",\"balance\":1}",
		"{\"account\":\"a\tb\",\"amount\":1}",
		`{"from":"0","to":"1","amount":-}`,
		`{"from":"0"`,
		`{}`,
		`[]`,
		`null`,
		``,
		`{"from":"` + strings.Repeat("a", 3000) + `","to":"1","amount":1}`,
		`{"from":"` + strings.Repeat("a", 1<<20) + `","to":"1","amount":1}`,
	} {
		f.Add([]byte(seed), 1<<20, -1)
		f.Add([]byte(seed), 1, -1)
		f.Add([]byte(seed), 7, len(seed)/2)
	}
	f.Fuzz(func(t *testing.T, body []byte, chunk, cut int) {
		if chunk <= 0 {
			chunk = 1
		}
		checkDecode[transferRequest](t, body, chunk, cut)
		checkDecode[moveRequest](t, body, chunk, cut)
		checkDecode[createRequest](t, body, chunk, cut)
	})
}

func checkDecode[T comparable, P interface {
	*T
	request
}](t *testing.T, body []byte, chunk, cut int) {
	t.Helper()
	var got, want T
	gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
	gotOK := decode(gotW, httptest.NewRequest("POST", "/", newFuzzBody(body, chunk, cut)), P(&got))
	wantOK := referenceDecode(wantW, httptest.NewRequest("POST", "/", newFuzzBody(body, chunk, cut)), &want)
	if gotOK != wantOK || got != want {
		t.Fatalf("%T from %s: decode = (%v, %+v), encoding/json = (%v, %+v)", got, show(body), gotOK, got, wantOK, want)
	}
	if gotW.Code != wantW.Code || !bytes.Equal(gotW.Body.Bytes(), wantW.Body.Bytes()) ||
		gotW.Header().Get("Content-Type") != wantW.Header().Get("Content-Type") || len(gotW.Header()) != len(wantW.Header()) {
		t.Fatalf("%T from %s: decode answered %d %v %q, encoding/json %d %v %q", got, show(body),
			gotW.Code, gotW.Header(), gotW.Body, wantW.Code, wantW.Header(), wantW.Body)
	}
}

// show quotes a body for a failure message, eliding the middle of a long one.
func show(b []byte) string {
	if len(b) > 200 {
		return fmt.Sprintf("%q...(%d bytes)...%q", b[:100], len(b)-200, b[len(b)-100:])
	}
	return fmt.Sprintf("%q", b)
}
