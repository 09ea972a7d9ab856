package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
)

// Span is one timed interval at a layer boundary. ID is the operation (or
// request) the span belongs to: every span of one operation carries the same
// ID, and 0 marks a span attributed by kind only (transaction attempts inside
// the server, which run on another goroutine than the handler that caused
// them). Parent names the enclosing span kind; the tree is static.
type Span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Span kinds, root first.
const (
	spanRequest    = "gen.request"
	spanHandler    = "server.handler"
	spanAtomically = "stm.atomically"
	spanAttempt    = "stm.attempt"
	spanBegin      = "core.begin"
	spanRead       = "core.read"
	spanWrite      = "core.write"
	spanCommit     = "core.commit"
	spanAbort      = "core.abort"
)

// epoch anchors span timestamps; only differences matter.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// clockNS is what one nowNS call costs here: the least of several batches,
// because the first ones run on a processor that has not woken up yet. An
// interval between two calls contains about one of them, so per-call means are
// reported net of it.
var clockNS = func() float64 {
	const batches, n = 16, 1 << 12
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		start := nowNS()
		for i := 0; i < n; i++ {
			nowNS()
		}
		best = min(best, float64(nowNS()-start)/(n+1))
	}
	return best
}()

// coreAgg accumulates what the timing wrapper sees. Counts cover every
// transaction; durations cover the sampled ones.
type coreAgg struct {
	attempts, reads, writes int64 // all transactions

	sAttempts, sReads, sWrites int64 // sampled transactions
	attemptNS                  int64 // Begin start to Commit/Abort end
	beginNS, readNS, writeNS   int64
	commitNS, commits          int64 // update commits (successful or not)
	commitRONS, commitsRO      int64
	abortNS, aborts            int64 // Abort calls
}

func (a *coreAgg) add(b *coreAgg) {
	a.attempts += b.attempts
	a.reads += b.reads
	a.writes += b.writes
	a.sAttempts += b.sAttempts
	a.sReads += b.sReads
	a.sWrites += b.sWrites
	a.attemptNS += b.attemptNS
	a.beginNS += b.beginNS
	a.readNS += b.readNS
	a.writeNS += b.writeNS
	a.commitNS += b.commitNS
	a.commits += b.commits
	a.commitRONS += b.commitRONS
	a.commitsRO += b.commitsRO
	a.abortNS += b.abortNS
	a.aborts += b.aborts
}

// timedCalls is how many engine calls the sampled transactions timed.
func (a *coreAgg) timedCalls() int64 {
	return a.sAttempts + a.sReads + a.sWrites + a.commits + a.commitsRO + a.aborts
}

// barrierNS is the sampled time spent inside the engine.
func (a *coreAgg) barrierNS() int64 {
	return a.beginNS + a.readNS + a.writeNS + a.commitNS + a.commitRONS + a.abortNS
}

// sink collects the spans and aggregates of one goroutine (library workers,
// HTTP senders) or of the server side as a whole. The mutex is uncontended in
// the first case and taken once per transaction or request in the second.
type sink struct {
	mu      sync.Mutex
	spans   []Span
	spanCap int // stop opening new operations' spans past this many
	core    coreAgg
}

func newSink(spanCap int) *sink { return &sink{spanCap: spanCap} }

// room reports whether a new operation may record spans. The decision is per
// operation, so a recorded tree is always whole.
func (s *sink) room() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.spans) < s.spanCap
}

func (s *sink) span(name string, id uint64, parent string, start, end int64) {
	s.mu.Lock()
	s.spans = append(s.spans, Span{name, id, parent, start, end})
	s.mu.Unlock()
}

// timedTM wraps an engine so that the benchmark can time its barriers from
// outside (the shape of internal/bench's yield wrapper). Used directly it
// samples one transaction in every `every` and attributes spans by kind; a
// view binds it to one worker, whose current operation decides.
type timedTM struct {
	inner stm.TM
	rec   stm.TxRecycler // inner's recycler; nil when unsupported
	every uint64
	seq   atomic.Uint64
	sink  *sink
	pool  sync.Pool // of *timedTx
}

func newTimedTM(inner stm.TM, every int, sk *sink) *timedTM {
	t := &timedTM{inner: inner, every: uint64(every), sink: sk}
	t.rec, _ = inner.(stm.TxRecycler)
	t.pool.New = func() any { return &timedTx{} }
	return t
}

func (t *timedTM) Name() string                     { return t.inner.Name() }
func (t *timedTM) NewVar(initial stm.Value) stm.Var { return t.inner.NewVar(initial) }
func (t *timedTM) Stats() *stm.Stats                { return t.inner.Stats() }

func (t *timedTM) Begin(readOnly bool) stm.Tx {
	sampled := t.seq.Add(1)%t.every == 0
	return t.begin(readOnly, sampled, sampled && t.sink.room(), 0, t.sink, nil)
}

func (t *timedTM) begin(readOnly, sampled, spans bool, id uint64, sk *sink, op *opTrace) stm.Tx {
	tx := t.pool.Get().(*timedTx)
	*tx = timedTx{sink: sk, op: op, id: id, sampled: sampled, spans: spans, readOnly: readOnly}
	if !sampled {
		tx.inner = t.inner.Begin(readOnly)
		return tx
	}
	tx.start = nowNS()
	tx.inner = t.inner.Begin(readOnly)
	end := nowNS()
	tx.agg.beginNS = end - tx.start
	if spans {
		sk.span(spanBegin, id, spanAttempt, tx.start, end)
	}
	return tx
}

func (t *timedTM) Commit(tx stm.Tx) bool {
	x := tx.(*timedTx)
	if !x.sampled {
		ok := t.inner.Commit(x.inner)
		x.finish(0)
		return ok
	}
	start := nowNS()
	ok := t.inner.Commit(x.inner)
	end := nowNS()
	if x.readOnly {
		x.agg.commitRONS, x.agg.commitsRO = end-start, 1
	} else {
		x.agg.commitNS, x.agg.commits = end-start, 1
	}
	if x.spans {
		x.sink.span(spanCommit, x.id, spanAttempt, start, end)
	}
	x.finish(end)
	return ok
}

func (t *timedTM) Abort(tx stm.Tx) {
	x := tx.(*timedTx)
	if !x.sampled {
		t.inner.Abort(x.inner)
		x.finish(0)
		return
	}
	start := nowNS()
	t.inner.Abort(x.inner)
	end := nowNS()
	x.agg.abortNS, x.agg.aborts = end-start, 1
	if x.spans {
		x.sink.span(spanAbort, x.id, spanAttempt, start, end)
	}
	x.finish(end)
}

// Recycle implements stm.TxRecycler: the wrapper returns to its own pool and
// the wrapped transaction goes to the engine's recycler.
func (t *timedTM) Recycle(tx stm.Tx) {
	x, ok := tx.(*timedTx)
	if !ok {
		return
	}
	inner := x.inner
	x.inner, x.sink, x.op = nil, nil, nil
	t.pool.Put(x)
	if t.rec != nil {
		t.rec.Recycle(inner)
	}
}

// view is a worker's handle on a timedTM: transactions begun through it carry
// the worker's current operation id and sampling decision.
type view struct {
	*timedTM
	sk *sink
	op opTrace
}

// opTrace is the per-operation state a worker shares with its transactions.
type opTrace struct {
	id        uint64
	sampled   bool
	spans     bool
	attemptNS int64 // Σ attempt durations of the current operation
}

func (t *timedTM) view(sk *sink) *view { return &view{timedTM: t, sk: sk} }

func (v *view) Begin(readOnly bool) stm.Tx {
	return v.begin(readOnly, v.op.sampled, v.op.spans, v.op.id, v.sk, &v.op)
}

// timedTx forwards to the engine's transaction, counting every barrier and
// timing them when sampled.
type timedTx struct {
	inner    stm.Tx
	sink     *sink
	op       *opTrace // nil when used without a view
	id       uint64
	sampled  bool
	spans    bool
	readOnly bool
	start    int64
	agg      coreAgg
}

func (x *timedTx) Read(v stm.Var) stm.Value {
	x.agg.reads++
	if !x.sampled {
		return x.inner.Read(v)
	}
	start := nowNS()
	val := x.inner.Read(v)
	end := nowNS()
	x.agg.readNS += end - start
	if x.spans {
		x.sink.span(spanRead, x.id, spanAttempt, start, end)
	}
	return val
}

func (x *timedTx) Write(v stm.Var, val stm.Value) {
	x.agg.writes++
	if !x.sampled {
		x.inner.Write(v, val)
		return
	}
	start := nowNS()
	x.inner.Write(v, val)
	end := nowNS()
	x.agg.writeNS += end - start
	if x.spans {
		x.sink.span(spanWrite, x.id, spanAttempt, start, end)
	}
}

func (x *timedTx) ReadOnly() bool { return x.inner.ReadOnly() }

// LastAbortReason implements stm.AbortReasoner when the engine's transaction
// does, so the retry loop still learns why a commit failed.
func (x *timedTx) LastAbortReason() stm.AbortReason {
	if ar, ok := x.inner.(stm.AbortReasoner); ok {
		return ar.LastAbortReason()
	}
	return stm.ReasonNone
}

// finish closes the attempt at end (0 when unsampled) and folds it into the
// sink.
func (x *timedTx) finish(end int64) {
	x.agg.attempts = 1
	if x.sampled {
		x.agg.sAttempts, x.agg.sReads, x.agg.sWrites = 1, x.agg.reads, x.agg.writes
		x.agg.attemptNS = end - x.start
		if x.op != nil {
			x.op.attemptNS += x.agg.attemptNS
		}
	}
	parent := spanAtomically
	if x.op == nil {
		parent = spanHandler
	}
	x.sink.mu.Lock()
	x.sink.core.add(&x.agg)
	if x.spans {
		x.sink.spans = append(x.sink.spans, Span{spanAttempt, x.id, parent, x.start, end})
	}
	x.sink.mu.Unlock()
}

// reqHeader carries a sampled request's id from the generator to the timing
// handler, so gen.request and server.handler spans share it.
const reqHeader = "X-Bench-Req"

// handlerTimes is what the timing handler saw.
type handlerTimes struct {
	mu  sync.Mutex
	on  bool
	all []int64 // handler durations, ns
}

// start drops what was recorded so far (set-up's requests) and records from
// here; stop ends recording and returns the durations.
func (h *handlerTimes) start() {
	h.mu.Lock()
	h.on, h.all = true, h.all[:0]
	h.mu.Unlock()
}

func (h *handlerTimes) stop() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.on = false
	return h.all
}

// timedHandler times next from outside and records a server.handler span for
// requests the generator marked.
func timedHandler(next http.Handler, times *handlerTimes, sk *sink) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := nowNS()
		next.ServeHTTP(w, r)
		end := nowNS()
		times.mu.Lock()
		if times.on {
			times.all = append(times.all, end-start)
		}
		times.mu.Unlock()
		if id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64); err == nil {
			sk.span(spanHandler, id, spanRequest, start, end)
		}
	})
}

// writeSpans appends one workload's spans to w as JSON lines, after a header
// line that says which workload and sampling rate they came from.
func writeSpans(w io.Writer, workload string, every int, sinks []*sink) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	n := 0
	for _, s := range sinks {
		n += len(s.spans)
	}
	if err := enc.Encode(map[string]any{"workload": workload, "sample_every": every, "spans": n}); err != nil {
		return 0, err
	}
	for _, s := range sinks {
		for i := range s.spans {
			if err := enc.Encode(&s.spans[i]); err != nil {
				return 0, err
			}
		}
	}
	return n, bw.Flush()
}
