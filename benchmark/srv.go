package main

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
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engines"
	"repro/internal/server"
	"repro/internal/wal"
)

const (
	gateWait      = 250 * time.Millisecond // srv-durable: bursts queue at the gate instead of being shed
	fsyncPolicy   = "per-commit"
	snapshotEvery = 2 * time.Second // srv-durable: several checkpoint/rotate/prune cycles fall inside every window
	drainLimit    = 5 * time.Second // open loop: arrivals not sent this long after the window count as failed

	// openLoopPool is how many connections per worker the open loop keeps.
	// Independent users do not wait for each other: with only W senders, an
	// arrival that finds them all inside a 1-5 ms durable update queues at the
	// client, and at 300 req/s that happens to about 1 % of arrivals — the read
	// p99 would sit on that edge and measure the generator. Idle senders are
	// parked.
	openLoopPool = 4
)

// senders is how many connections the workload keeps open.
func (rc repConfig) senders() int {
	if rc.wl.openRate > 0 {
		return openLoopPool * rc.workers
	}
	return rc.workers
}

// logBuffer keeps the server's warnings so a repetition can show them; the
// per-request debug lines are below its level and cost nothing.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func (l *logBuffer) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(l, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// instance is one running server and what the benchmark wrapped around it.
type instance struct {
	srv  *server.Server
	url  string
	stop func() error // stops serving, waits for the serve goroutine, closes the server

	times      *handlerTimes // traced only
	serverSink *sink         // traced only: handler and server-side attempt spans
	timed      *timedTM      // traced and volatile only
}

// startServer builds the workload's server and serves it on a loopback port.
func startServer(rc repConfig, walDir string, log *slog.Logger) (*instance, error) {
	wl := rc.wl
	cfg := server.Config{
		Engine:         rc.engineName(),
		Accounts:       wl.accounts,
		InitialBalance: initialBalance,
		Logger:         log,
	}
	in := &instance{}
	if wl.durable {
		cfg.WALDir, cfg.FsyncPolicy, cfg.SnapshotEvery, cfg.GateWait = walDir, fsyncPolicy, snapshotEvery, gateWait
	}
	if rc.traced {
		in.times, in.serverSink = &handlerTimes{}, newSink(spanCapPerSink)
		if !wl.durable { // Config.TM and Config.WALDir are mutually exclusive
			tm, err := engines.New(cfg.Engine)
			if err != nil {
				return nil, err
			}
			in.timed = newTimedTM(tm, wl.sampleEvery, in.serverSink)
			cfg.TM = in.timed
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in.srv, in.url = srv, "http://"+ln.Addr().String()
	served := make(chan error, 1)
	if !rc.traced {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { served <- srv.Serve(ctx, ln, drainLimit) }()
		in.stop = func() error {
			cancel()
			err := <-served
			srv.Close()
			return err
		}
		return in, nil
	}
	// Server.Serve builds its handler itself, so the traced run serves the
	// wrapped handler from an http.Server with Serve's settings.
	hs := &http.Server{
		Handler:           timedHandler(srv.Handler(), in.times, in.serverSink),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    64 << 10,
	}
	go func() { served <- hs.Serve(ln) }()
	in.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-served
		srv.Close()
		return err
	}
	return in, nil
}

// sender is one keep-alive connection and its tally.
type sender struct {
	client *http.Client
	base   string
	body   bytes.Buffer // request scratch
	resp   bytes.Buffer // response scratch

	samples
	failed   uint64
	firstErr error
	last     time.Time // completion of the last operation

	late   []int64 // open loop: send − due of the arrivals this sender was waiting for at their due time
	queued uint64  // open loop: arrivals no sender was waiting for at their due time

	// Traced runs only: sink is nil otherwise.
	sink        *sink
	worker      uint64 // high bits of this sender's request ids
	every       uint64 // mark one request in this many for the timing handler
	rttNS, rttN int64  // Σ client round trips
}

func newSender(base string) *sender {
	return &sender{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// do sends one operation and checks the reply. reqID != 0 marks the request
// for the timing handler.
func (s *sender) do(o op, reqID uint64) error {
	var req *http.Request
	var err error
	var want string
	switch o.kind {
	case opBalance:
		id := strconv.FormatInt(o.a, 10)
		req, err = http.NewRequest(http.MethodGet, s.base+"/v1/accounts/"+id, nil)
		want = `{"id":"` + id + `"`
	case opTransfer:
		s.body.Reset()
		fmt.Fprintf(&s.body, `{"from":"%d","to":"%d","amount":1}`, o.a, o.b)
		req, err = http.NewRequest(http.MethodPost, s.base+"/v1/transfer", bytes.NewReader(s.body.Bytes()))
		want = `"committed"`
	default:
		return fmt.Errorf("server workload got operation kind %d", o.kind)
	}
	if err != nil {
		return err
	}
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(reqID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	s.resp.Reset()
	_, err = s.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(s.resp.Bytes()))
	}
	if !bytes.Contains(s.resp.Bytes(), []byte(want)) {
		return fmt.Errorf("%s %s: reply %q lacks %s", req.Method, req.URL.Path, s.resp.Bytes(), want)
	}
	return nil
}

func (s *sender) record(o op, err error, done time.Time, ns int64) {
	s.tick(done)
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.samples.record(o.kind.isRead(), ns)
}

// send does operation number i of the run and returns when it completed. A
// traced sender marks one request in every s.every, while its sink has room
// for the span.
func (s *sender) send(o op, i uint64) (time.Time, error) {
	if s.sink == nil {
		err := s.do(o, 0)
		return time.Now(), err
	}
	var reqID uint64
	if i%s.every == 0 && s.sink.room() {
		reqID = s.worker<<40 | i
	}
	start := nowNS()
	err := s.do(o, reqID)
	end := nowNS()
	s.rttNS += end - start
	s.rttN++
	if reqID != 0 {
		s.sink.span(spanRequest, reqID, "", start, end)
	}
	return time.Now(), err
}

// closedLoop sends back to back until the deadline: each connection waits for
// its reply before the next request, latency from send (srv-volatile).
func (s *sender) closedLoop(ops *opStream, deadline time.Time) {
	t := time.Now()
	for i := uint64(1); t.Before(deadline); i++ {
		o := ops.next()
		done, err := s.send(o, i)
		s.record(o, err, done, int64(done.Sub(t)))
		t = done
	}
	s.last = t
}

// openLoop is the schedule the senders of srv-durable share. They consume it
// in order, and one at a time: the sender whose turn it is waits for the next
// arrival's due time, hands the turn to an idle sender and sends. Only the
// sender in turn spins; were each to wait for an arrival of its own, two could
// spin at once, and with both processors inside runtime.Gosched loops nobody
// polls the network until one stops — replies sat for up to the spin margin.
type openLoop struct {
	sched  []arrival
	start  time.Time
	window time.Duration
	turn   chan int // holds the index of the next arrival while no sender waits for it; closed after the last
}

func newOpenLoop(sched []arrival) *openLoop {
	l := &openLoop{sched: sched, turn: make(chan int, 1)}
	if len(sched) == 0 {
		close(l.turn)
	} else {
		l.turn <- 0
	}
	return l
}

// run sends the arrivals that fall to this sender and times each from when it
// was due, whatever the senders were doing then.
func (l *openLoop) run(s *sender, giveUp time.Time) {
	for i := range l.turn {
		a := l.sched[i]
		due := l.start.Add(a.due)
		waited := waitUntil(due)
		if i+1 < len(l.sched) {
			l.turn <- i + 1
		} else {
			close(l.turn)
		}
		now := time.Now()
		switch {
		case now.After(giveUp):
			s.failed++ // never sent
			continue
		case waited:
			s.late = append(s.late, int64(now.Sub(due)))
		default:
			s.queued++ // no sender was waiting at the due time (all busy, or the turn still changing hands): client-side queueing, and it is in the latency below
		}
		done, err := s.send(a.op, uint64(i)+1)
		s.record(a.op, err, done, int64(done.Sub(due)))
		s.last = done
	}
	// No operation of the schedule is left to cross the end of the window.
	s.tick(l.start.Add(l.window))
}

// runSrv measures one repetition of a server workload.
func runSrv(rc repConfig) (*repResult, error) {
	wl := rc.wl
	res := newRepResult(rc)
	logs := &logBuffer{}

	setupStart := time.Now()
	var walDir string
	if wl.durable {
		dir, err := os.MkdirTemp(rc.scratch, "wal-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		walDir = filepath.Join(dir, "live")
	}
	in, err := startServer(rc, walDir, logs.logger())
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			in.stop()
		}
	}()
	senders := make([]*sender, rc.senders())
	for w := range senders {
		s := newSender(in.url)
		defer s.close()
		s.samples = newSamples(rc, res)
		if wl.openRate > 0 {
			s.late = make([]int64, 0, cap(s.reads))
			res.genBufBytes += 8 * uint64(cap(s.reads))
		}
		if rc.traced {
			s.sink, s.worker, s.every = newSink(spanCapPerSink), uint64(w), uint64(wl.sampleEvery)
		}
		// Dial now: the first timed request finds its connection open.
		if err := s.do(op{kind: opBalance, a: 0}, 0); err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
		senders[w] = s
	}
	var open *openLoop
	streams := make([]*opStream, len(senders))
	if wl.openRate > 0 {
		open = newOpenLoop(poissonSchedule(wl, rc.seed, rc.dur))
		open.window = rc.dur
	} else {
		for w := range streams {
			streams[w] = newOpStream(wl, rc.seed, w)
		}
	}
	res.setupS = time.Since(setupStart).Seconds()
	if rc.setupOnly {
		return res, nil // the deferred calls tear everything down
	}

	tm := in.srv.TM()
	m0 := readServerCounters(in.srv)
	if rc.traced {
		in.times.start()
		if in.timed != nil {
			in.serverSink.mu.Lock()
			in.serverSink.core = coreAgg{}
			in.serverSink.mu.Unlock()
		}
	}
	win := openWindow(tm)

	start := time.Now()
	deadline := start.Add(rc.dur)
	var wg sync.WaitGroup
	if open != nil {
		open.start = start
	}
	for w, s := range senders {
		s.open(start)
		wg.Add(1)
		go func(w int, s *sender) {
			defer wg.Done()
			if open != nil {
				open.run(s, deadline.Add(drainLimit))
			} else {
				s.closedLoop(streams[w], deadline)
			}
		}(w, s)
	}
	wg.Wait()
	end := start
	if open != nil {
		end = deadline // the offered rate is over the whole window, whenever its last arrival was
	}
	for _, s := range senders {
		if s.last.After(end) {
			end = s.last
		}
	}
	res.window = end.Sub(start)
	win.close(res)
	m1 := readServerCounters(in.srv)
	var all []int64 // handler durations
	var core coreAgg
	if rc.traced {
		all = in.times.stop()
		in.serverSink.mu.Lock()
		core = in.serverSink.core
		in.serverSink.mu.Unlock()
	}

	var late []int64
	var queued uint64
	var rttNS, rttN int64
	tallies := make([]*samples, len(senders))
	for i, s := range senders {
		tallies[i] = &s.samples
		res.failed += s.failed
		late = append(late, s.late...)
		queued += s.queued
		rttNS += s.rttNS
		rttN += s.rttN
		if s.firstErr != nil {
			res.fail("operation error: %v", s.firstErr)
		}
		if s.sink != nil {
			res.sinks = append(res.sinks, s.sink)
		}
	}
	res.tally(tallies)
	res.perOp()

	// Correctness: money is conserved, and on the durable server every
	// acknowledged transfer survives recovery of the log as it is on disk now.
	check := senders[0]
	if err := auditConserves(check.client, in.url, wl.accounts); err != nil {
		res.fail("%v", err)
	}
	if wl.durable {
		checkDurable(rc, res, in, filepath.Dir(walDir))
	}

	stopped = true
	if err := in.stop(); err != nil {
		res.fail("server shutdown: %v", err)
	}
	if s := logs.String(); s != "" {
		res.note("server log: %s", firstLines(s, 3))
	}

	if open != nil {
		slices.Sort(late)
		res.layer["gen.late_p50_us"] = quantile(late, 0.50) / 1e3
		res.layer["gen.late_p99_us"] = quantile(late, 0.99) / 1e3
		res.layer["gen.queued_share"] = share(queued, res.attempted)
		// Pacing overshoot is inside every sample: past 5 % of the read median
		// the latencies measure the generator, not the server.
		if lp, rp := quantile(late, 0.50)/1e3, res.e2e()["read_p50_us"]; lp > 0.05*rp {
			res.fail("invalid repetition: gen.late_p50_us %.2f exceeds 5 %% of read_p50_us %.2f", lp, rp)
		}
	}
	requests := m1.requests - m0.requests
	res.layer["gen.attempted"] = float64(res.attempted)
	res.layer["server.shed_share"] = share(m1.sheds-m0.sheds, requests)
	res.layer["server.cancel_share"] = share(m1.cancels-m0.cancels, requests)
	res.layer["server.gate_overloads"] = float64(m1.overloads - m0.overloads)
	if wl.durable {
		res.layer["wal.records_per_commit"] = mean(float64(m1.walAppended-m0.walAppended), int64(res.updates))
		// Checkpoints prune segments inside the window, so bytes are counted on
		// what is left: the records since the last checkpoint.
		res.layer["wal.bytes_per_commit"] = res.walRecordBytes * res.layer["wal.records_per_commit"]
		// No wrapper can sit under a durable server, so reads are counted
		// from the ledger's shapes: a transfer attempt reads three variables,
		// a balance read two.
		reads := 3*int64(res.updates) + 2*int64(res.reads)
		res.layer["mvutil.stamp_cas_retries_per_kread"] = mean(float64(res.stampRetries)*1e3, reads)
	}
	if rc.traced {
		var handlerNS int64
		for _, d := range all {
			handlerNS += d
		}
		slices.Sort(all)
		res.layer["server.handler_p50_us"] = quantile(all, 0.50) / 1e3
		handlerMean := mean(float64(handlerNS), int64(len(all)))
		res.layer["server.transport_us"] = (mean(float64(rttNS), rttN) - handlerMean) / 1e3
		if in.timed != nil {
			res.coreLayer(&core, wl.sampleEvery)
			// Mean attempt time, times attempts per request, is the part of
			// the handler spent inside transaction attempts.
			inAttempts := mean(float64(core.attemptNS), core.sAttempts) * mean(float64(core.attempts), int64(len(all)))
			res.layer["server.handler_self_us"] = (handlerMean - inAttempts) / 1e3
		}
		res.sinks = append(res.sinks, in.serverSink)
	}
	return res, nil
}

// serverCounters is Server.Metrics, Gate and WALCounters at one instant.
type serverCounters struct {
	requests, sheds, cancels, overloads, walAppended uint64
}

func readServerCounters(srv *server.Server) serverCounters {
	m := srv.Metrics()
	c := serverCounters{
		requests:  m.Requests.Load(),
		sheds:     m.Sheds.Load(),
		cancels:   m.Cancels.Load(),
		overloads: srv.Gate().Overloads(),
	}
	if w := srv.WAL(); w != nil {
		c.walAppended, _, _, _ = w.WALCounters()
	}
	return c
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(strings.TrimSpace(s), "\n", n+1)
	return strings.Join(lines[:min(n, len(lines))], " | ")
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// auditConserves checks GET /v1/audit against accounts × initialBalance.
func auditConserves(c *http.Client, base string, accounts int) error {
	var audit struct {
		Accounts     int   `json:"accounts"`
		TotalBalance int64 `json:"totalBalance"`
	}
	if err := getJSON(c, base+"/v1/audit", &audit); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if want := int64(accounts) * initialBalance; audit.Accounts != accounts || audit.TotalBalance != want {
		return fmt.Errorf("audit: %d accounts hold %d, want %d accounts holding %d", audit.Accounts, audit.TotalBalance, accounts, want)
	}
	return nil
}

// balancesOf reads every account's balance through h.
func balancesOf(h http.Handler, accounts int) ([]int64, error) {
	out := make([]int64, accounts)
	for i := range out {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/accounts/"+strconv.Itoa(i), nil))
		var view struct {
			Balance int64 `json:"balance"`
		}
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("account %d: status %d", i, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			return nil, fmt.Errorf("account %d: %w", i, err)
		}
		out[i] = view.Balance
	}
	return out, nil
}

// checkDurable copies the log directory as it stands after the drain (the
// server still open, nothing in flight), recovers the copy into a second
// server and compares every balance with the live one. The copy reads through
// the OS page cache: it proves the log is complete, not that it reached the
// platter — that is internal/chaos's crash soak.
func checkDurable(rc repConfig, res *repResult, in *instance, dir string) {
	wl := rc.wl
	live, err := balancesOf(in.srv.Handler(), wl.accounts)
	if err != nil {
		res.fail("live balances: %v", err)
		return
	}
	copyDir := filepath.Join(dir, "copy")
	if err := copyWAL(in.srv.WAL().Dir(), copyDir); err != nil {
		res.fail("copy log: %v", err)
		return
	}
	t := time.Now()
	rec, err := wal.Recover(copyDir)
	if err != nil {
		res.fail("recover copy: %v", err)
		return
	}
	res.layer["wal.recover_ms"] = float64(time.Since(t)) / 1e6
	res.layer["wal.recover_records"] = float64(rec.Records)
	if segs, bytes, err := segmentBytes(copyDir); err == nil {
		res.walRecordBytes = mean(float64(bytes-segs*segmentHeader), int64(rec.Records))
	}
	second, err := server.New(server.Config{
		Engine: rc.engineName(), Accounts: wl.accounts, InitialBalance: initialBalance,
		WALDir: copyDir, FsyncPolicy: fsyncPolicy, SnapshotEvery: -1,
		WatchdogEvery: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		res.fail("recovered server: %v", err)
		return
	}
	recovered, err := balancesOf(second.Handler(), wl.accounts)
	second.Close()
	if err != nil {
		res.fail("recovered balances: %v", err)
		return
	}
	for i := range live {
		if live[i] != recovered[i] {
			res.fail("account %d: live balance %d, recovered %d (an acknowledged transfer did not survive)", i, live[i], recovered[i])
			break
		}
	}
	t = time.Now()
	if err := in.srv.Checkpoint(); err != nil {
		res.fail("checkpoint: %v", err)
	}
	res.layer["wal.checkpoint_ms"] = float64(time.Since(t)) / 1e6
	if _, _, _, err := in.srv.WAL().WALCounters(); err != nil {
		res.fail("log latched a failure: %v", err)
	}
}

// copyWAL copies the regular files of src into a fresh dst.
func copyWAL(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// segmentHeader is the magic every log segment starts with.
const segmentHeader = 8

// segmentBytes counts the log segments in dir and their bytes.
func segmentBytes(dir string) (segments, bytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		segments++
		bytes += info.Size()
	}
	return segments, bytes, nil
}
