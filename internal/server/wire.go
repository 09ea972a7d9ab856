package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The request and reply bodies of the hot routes. A body in its canonical
// byte form — the keys in declaration order, no whitespace, no escapes, plain
// ASCII strings, an integer without leading zeros — is scanned directly;
// every other spelling goes to encoding/json, which alone decides what it
// means. The replies are appended byte for byte as encoding/json writes them.
// DESIGN.md §15 has the argument that the two paths cannot disagree.

// maxBody bounds a request body (encoding/json's fallback reads through an
// http.MaxBytesReader with this limit). Bodies are tiny; 1MB bounds hostile
// ones.
const maxBody = 1 << 20

// scratchSize is the pooled buffer a request body is first read into; a body
// that does not fit takes the fallback, which reads on from where this
// stopped.
const scratchSize = 2048

var scratchPool = sync.Pool{New: func() any { return new([scratchSize]byte) }}

// request is a body decode can scan: scanFast fills the receiver and reports
// true only when b is exactly the canonical form.
type request interface {
	scanFast(b []byte) bool
}

// decode parses the JSON request body into v, answering 400 itself on
// malformed input.
func decode(w http.ResponseWriter, r *http.Request, v request) bool {
	buf := scratchPool.Get().(*[scratchSize]byte)
	defer scratchPool.Put(buf)
	n, err := io.ReadFull(r.Body, buf[:])
	if err == io.ErrUnexpectedEOF {
		err = io.EOF // the body ended inside the scratch
	}
	if err == io.EOF && v.scanFast(buf[:n]) {
		return true
	}
	// The fallback sees the very byte stream the body would have given it:
	// what was read, then the rest of the body (or the error that ended it).
	var rest io.Reader = r.Body
	if err != nil {
		rest = errReader{err}
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, io.NopCloser(io.MultiReader(bytes.NewReader(buf[:n]), rest)), maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErrJSON(w, http.StatusBadRequest, "bad-json", err)
		return false
	}
	return true
}

// errReader replays the error that ended the body's first read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanner walks a canonical body; the first mismatch clears ok and every
// later step is a no-op.
type scanner struct {
	b  []byte
	ok bool
}

// lit consumes the literal bytes s.
func (sc *scanner) lit(s string) {
	if !sc.ok || len(sc.b) < len(s) || string(sc.b[:len(s)]) != s {
		sc.ok = false
		return
	}
	sc.b = sc.b[len(s):]
}

// str consumes a quoted string of printable ASCII without '"' or '\\' —
// bytes that decode to themselves.
func (sc *scanner) str() string {
	sc.lit(`"`)
	if !sc.ok {
		return ""
	}
	for i, c := range sc.b {
		if c == '"' {
			s := string(sc.b[:i])
			sc.b = sc.b[i+1:]
			return s
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	sc.ok = false
	return ""
}

// int consumes -?(0|[1-9][0-9]*) of at most 18 digits, which no int64
// overflows.
func (sc *scanner) int() int64 {
	if !sc.ok {
		return 0
	}
	b, neg := sc.b, false
	if len(b) > 0 && b[0] == '-' {
		b, neg = b[1:], true
	}
	i := 0
	for i < len(b) && i <= 18 && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == 0 || i > 18 || (b[0] == '0' && i > 1) {
		sc.ok = false
		return 0
	}
	var n int64
	for _, c := range b[:i] {
		n = n*10 + int64(c-'0')
	}
	sc.b = b[i:]
	if neg {
		n = -n
	}
	return n
}

// end reports whether every step matched and the body is used up.
func (sc *scanner) end() bool { return sc.ok && len(sc.b) == 0 }

func (q *transferRequest) scanFast(b []byte) bool {
	sc := scanner{b: b, ok: true}
	var t transferRequest
	sc.lit(`{"from":`)
	t.From = sc.str()
	sc.lit(`,"to":`)
	t.To = sc.str()
	sc.lit(`,"amount":`)
	t.Amount = sc.int()
	sc.lit(`}`)
	if !sc.end() {
		return false
	}
	*q = t
	return true
}

func (q *moveRequest) scanFast(b []byte) bool {
	sc := scanner{b: b, ok: true}
	var t moveRequest
	sc.lit(`{"account":`)
	t.Account = sc.str()
	sc.lit(`,"amount":`)
	t.Amount = sc.int()
	sc.lit(`}`)
	if !sc.end() {
		return false
	}
	*q = t
	return true
}

func (q *createRequest) scanFast(b []byte) bool {
	sc := scanner{b: b, ok: true}
	var t createRequest
	sc.lit(`{"id":`)
	t.ID = sc.str()
	sc.lit(`,"balance":`)
	t.Balance = sc.int()
	sc.lit(`}`)
	if !sc.end() {
		return false
	}
	*q = t
	return true
}

// jsonContentType is the Content-Type header value of every JSON reply,
// shared so setting it allocates nothing (net/http only reads it).
var jsonContentType = []string{"application/json"}

// committedBody is encoding/json's encoding of {"status":"committed"}.
var committedBody = []byte("{\"status\":\"committed\"}\n")

// writeCommitted answers 200 for a committed update.
func writeCommitted(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(committedBody)
}

// writeBalance answers status with the account view, appended as
// encoding/json would encode it. An ID encoding/json would escape takes
// encoding/json itself.
func writeBalance(w http.ResponseWriter, status int, v BalanceView) {
	if !plainJSON(v.ID) {
		writeJSON(w, status, v)
		return
	}
	buf := scratchPool.Get().(*[scratchSize]byte)
	defer scratchPool.Put(buf)
	b := append(buf[:0], `{"id":"`...)
	b = append(b, v.ID...)
	b = append(b, `","balance":`...)
	b = strconv.AppendInt(b, v.Balance, 10)
	b = append(b, `,"held":`...)
	b = strconv.AppendInt(b, v.Held, 10)
	b = append(b, `,"available":`...)
	b = strconv.AppendInt(b, v.Available, 10)
	b = append(b, "}\n"...)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// plainJSON reports whether encoding/json writes s between its quotes
// unchanged: printable ASCII other than '"', '\\' and the HTML-escaped '<',
// '>' and '&'.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
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
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
