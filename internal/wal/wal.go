// Package wal is the durability subsystem: an append-only, checksummed,
// segment-rotating write-ahead log of committed write sets in time-warp
// commit order, periodic variable snapshots, and crash recovery by replay
// (DESIGN.md §16).
//
// The Writer implements stm.CommitLogger. Engines call Append with write
// locks held, before any version becomes visible, and Durable after install;
// because no write is visible before its record is appended and an fsync
// covers every prior append, a crash loses only a dependency-closed suffix
// of the history — the recovered state is always a serializable prefix.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
)

// Policy selects when appended records are fsynced.
type Policy uint8

const (
	// SyncPerCommit fsyncs before any commit acknowledges: Durable blocks
	// until a completed fsync covers its LSN. Concurrent waiters share one
	// fsync: each joins the fsync in flight or leads the next one, which
	// covers every record appended before it captured the append count (see
	// syncTo). Zero acknowledged commits are lost on a crash.
	SyncPerCommit Policy = iota
	// SyncInterval trades the tail of durability for latency: Durable returns
	// immediately and a background ticker fsyncs every Interval. A crash
	// loses at most the last interval of acknowledged commits.
	SyncInterval
)

// String returns the config spelling of the policy.
func (p Policy) String() string {
	if p == SyncInterval {
		return "interval"
	}
	return "per-commit"
}

// ParsePolicy parses the config spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "per-commit", "":
		return SyncPerCommit, nil
	case "interval":
		return SyncInterval, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (per-commit | interval)", s)
}

// Hooks are fault-injection points around the writer's file operations; the
// chaos package's crash plans latch the writer through them. A non-nil error
// from a hook fails the operation and latches the writer (see Writer.Err).
type Hooks struct {
	BeforeAppend func() error
	AfterAppend  func() error
	BeforeSync   func() error
	AfterSync    func() error
}

func callHook(h func() error) error {
	if h == nil {
		return nil
	}
	return h()
}

// Options configures a Writer.
type Options struct {
	Dir          string
	Policy       Policy
	SegmentBytes int64         // rotate past this many bytes (default 8 MiB)
	Interval     time.Duration // interval policy period (default 50ms)
	MetaStart    uint64        // first meta sequence number (recovered meta count)
	Hooks        Hooks
}

func (o *Options) defaults() {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.Interval == 0 {
		o.Interval = 50 * time.Millisecond
	}
}

// ErrClosed reports an operation on a closed writer.
var ErrClosed = errors.New("wal: writer closed")

// Writer is the append side of the log. It implements stm.CommitLogger.
//
// Failure latching: once any file operation (or injected hook) fails, the
// writer stays failed — every later Append returns the latched error, so
// engines abort new commits (stm.ReasonDurability) instead of acknowledging
// writes that will never reach disk. Records already synced remain durable.
type Writer struct {
	opts Options

	mu       sync.Mutex // file writes, rotation, latched error
	f        *os.File
	seq      uint64 // current segment sequence
	segBytes int64  // bytes written to the current segment
	metaSeq  uint64
	buf      []byte // encode scratch, reused across appends
	failed   error
	failedP  atomic.Pointer[error] // lock-free mirror of failed for Err

	appended atomic.Uint64 // records accepted (the LSN source)
	synced   atomic.Uint64 // records covered by a completed fsync

	syncMu   sync.Mutex    // guards inflight
	inflight chan struct{} // closed by its leader when the fsync in flight ends; nil when none

	quit   chan struct{}
	done   chan struct{}
	closed atomic.Bool
}

// Open creates (or reuses) dir and starts a fresh segment numbered after the
// highest existing one, so recovery artifacts are never overwritten. Call
// Recover first: Open itself neither reads nor replays old segments.
func Open(opts Options) (*Writer, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, _, err := listDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].seq + 1
	}
	w := &Writer{
		opts:    opts,
		metaSeq: opts.MetaStart,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		go w.intervalSyncer()
	} else {
		close(w.done)
	}
	return w, nil
}

// Dir returns the log directory.
func (w *Writer) Dir() string { return w.opts.Dir }

// Policy returns the configured fsync policy.
func (w *Writer) Policy() Policy { return w.opts.Policy }

// openSegment opens segment seq for writing; caller holds mu or is Open.
func (w *Writer) openSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(w.opts.Dir, seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	w.f, w.seq, w.segBytes = f, seq, int64(len(segMagic))
	return nil
}

// latch records the first failure; caller holds mu.
func (w *Writer) latch(err error) error {
	if w.failed == nil {
		w.failed = err
		w.failedP.Store(&err)
	}
	return w.failed
}

// Err returns the latched failure, if any. It takes no lock, so the health
// watchdog and Durable waiters can poll it freely.
func (w *Writer) Err() error {
	if p := w.failedP.Load(); p != nil {
		return *p
	}
	return nil
}

// Append implements stm.CommitLogger: it stages the write sets of the
// transactions committing under one clock advance, in natural-commit order,
// and returns the record's LSN. The caller still holds the commit write
// locks, so nothing appended here is visible to other transactions yet.
func (w *Writer) Append(recs []stm.CommitRecord) (stm.LSN, error) {
	body, err := encodeCommitBody(nil, recs)
	if err != nil {
		return 0, err
	}
	return w.appendBody(body)
}

// AppendMeta appends an application metadata record (e.g. an account
// creation) and forces it durable before returning, regardless of policy:
// metadata records define variable identity for replay, and they are rare
// enough that an unconditional fsync costs nothing measurable.
func (w *Writer) AppendMeta(payload []byte) error {
	w.mu.Lock()
	body := encodeMetaBody(nil, w.metaSeq, payload)
	lsn, err := w.appendLocked(body)
	if err == nil {
		w.metaSeq++ // seq consumed only by a successful append
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.syncTo(uint64(lsn))
}

func (w *Writer) appendBody(body []byte) (stm.LSN, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(body)
}

// appendLocked frames and writes one record; caller holds mu.
func (w *Writer) appendLocked(body []byte) (stm.LSN, error) {
	if w.failed != nil {
		return 0, w.failed
	}
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := callHook(w.opts.Hooks.BeforeAppend); err != nil {
		return 0, w.latch(err)
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	w.buf = frame(w.buf[:0], body)
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, w.latch(err)
	}
	w.segBytes += int64(len(w.buf))
	lsn := stm.LSN(w.appended.Add(1))
	if err := callHook(w.opts.Hooks.AfterAppend); err != nil {
		// The record reached the OS; treat the injected fault as striking
		// after the write — the commit still fails, and recovery may or may
		// not see the record, exactly like a real crash in this window.
		return 0, w.latch(err)
	}
	return lsn, nil
}

// Durable implements stm.CommitLogger: it blocks until the record at lsn is
// durable under the configured policy.
func (w *Writer) Durable(lsn stm.LSN) error {
	if w.opts.Policy == SyncInterval {
		return nil
	}
	return w.syncTo(uint64(lsn))
}

// syncTo returns once a completed fsync covers lsn, or with the latched
// failure. A waiter joins the fsync in flight — it waits for the channel its
// leader closes when that fsync ends, then re-checks the watermark — or leads
// the next one. Every waiter appended before it got here, and a leader's fsync
// covers every record appended before syncOnce captures the append count, so
// nothing is acknowledged before it is durable.
func (w *Writer) syncTo(lsn uint64) error {
	for {
		w.syncMu.Lock()
		// The watermark is re-read under syncMu: a leader advances it before
		// clearing inflight, so a waiter never leads a redundant fsync.
		if w.synced.Load() >= lsn {
			w.syncMu.Unlock()
			return nil
		}
		if err := w.Err(); err != nil {
			w.syncMu.Unlock()
			return err
		}
		if ch := w.inflight; ch != nil {
			w.syncMu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		w.inflight = ch
		w.syncMu.Unlock()
		// One yield before the capture lets committers about to append ride
		// this fsync instead of waiting out the next one.
		runtime.Gosched()
		err := w.syncOnce()
		w.syncMu.Lock()
		w.inflight = nil
		w.syncMu.Unlock()
		close(ch)
		return err
	}
}

// Sync fsyncs everything appended so far. A latched writer returns its
// failure even with nothing pending.
func (w *Writer) Sync() error {
	if err := w.Err(); err != nil {
		return err
	}
	return w.syncTo(w.appended.Load())
}

// syncOnce performs one fsync covering every record appended before it
// started; only syncTo's leader calls it. Rotation keeps the invariant that
// every segment but the current one is already synced, so syncing the current
// file is enough to advance the watermark to the captured append count.
func (w *Writer) syncOnce() error {
	w.mu.Lock()
	f, cur, err := w.f, w.appended.Load(), w.failed
	if err == nil {
		if err = callHook(w.opts.Hooks.BeforeSync); err != nil {
			err = w.latch(err)
		}
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	err = f.Sync()
	w.mu.Lock()
	if err == nil {
		err = callHook(w.opts.Hooks.AfterSync)
	}
	if err != nil {
		err = w.latch(err)
	}
	w.mu.Unlock()
	if err == nil {
		w.advance(cur)
	}
	return err
}

// advance raises the synced watermark to cur (monotone).
func (w *Writer) advance(cur uint64) {
	for {
		old := w.synced.Load()
		if cur <= old || w.synced.CompareAndSwap(old, cur) {
			return
		}
	}
}

// intervalSyncer drives the interval policy.
func (w *Writer) intervalSyncer() {
	defer close(w.done)
	tick := time.NewTicker(w.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-tick.C:
			if w.pending() > 0 {
				w.Sync() //nolint:errcheck // latched; waiters observe Err
			}
		}
	}
}

func (w *Writer) pending() uint64 {
	a, s := w.appended.Load(), w.synced.Load()
	if a < s {
		return 0
	}
	return a - s
}

// WALCounters reports append/sync progress for the health watchdog's
// WAL-stall judge: appended and synced record counts, the pending gap, and
// the latched failure (nil while healthy).
func (w *Writer) WALCounters() (appended, synced uint64, pending int, err error) {
	a, s := w.appended.Load(), w.synced.Load()
	p := 0
	if a > s {
		p = int(a - s)
	}
	return a, s, p, w.Err()
}

// Rotate fsyncs and closes the current segment and opens the next one,
// returning the new segment's sequence number. Records appended before the
// rotation all live in segments below the returned sequence; the snapshot
// protocol rotates first so that pruning "everything below seq" after a
// snapshot is safe.
func (w *Writer) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.closed.Load() {
		return 0, ErrClosed
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.seq, nil
}

func (w *Writer) rotateLocked() error {
	cur := w.appended.Load()
	if err := w.f.Sync(); err != nil {
		return w.latch(err)
	}
	if err := w.f.Close(); err != nil {
		return w.latch(err)
	}
	w.advance(cur) // everything in closed segments is durable
	if err := w.openSegment(w.seq + 1); err != nil {
		return w.latch(err)
	}
	return syncDir(w.opts.Dir)
}

// Prune removes segments and snapshots strictly below seq. It is called
// after a snapshot at seq is durably in place; missing files are fine (a
// crash mid-prune just leaves extra covered segments, which replay skips).
func (w *Writer) Prune(seq uint64) error {
	segs, snaps, err := listDir(w.opts.Dir)
	if err != nil {
		return err
	}
	w.mu.Lock()
	active := w.seq
	w.mu.Unlock()
	for _, s := range segs {
		if s.seq < seq && s.seq != active {
			if err := os.Remove(filepath.Join(w.opts.Dir, s.name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	for _, s := range snaps {
		if s.seq < seq {
			if err := os.Remove(filepath.Join(w.opts.Dir, s.name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return syncDir(w.opts.Dir)
}

// Close stops the interval syncer, fsyncs everything appended, and closes the
// segment. Records appended but never synced before a crash-style shutdown
// are exactly what recovery's torn-tail handling is for; Close itself is the
// graceful path and leaves nothing pending.
func (w *Writer) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		<-w.done
		return w.Err()
	}
	close(w.quit)
	<-w.done
	first := w.Sync()
	w.mu.Lock()
	if err := w.f.Close(); err != nil && first == nil {
		first = err
	}
	w.mu.Unlock()
	return first
}

// --- directory layout -------------------------------------------------------

type dirFile struct {
	name string
	seq  uint64
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", seq))
}

// listDir returns the segment and snapshot files in dir, each sorted by
// sequence number. Unknown names are ignored (editor droppings, temp files).
func listDir(dir string) (segs, snaps []dirFile, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err == nil {
				segs = append(segs, dirFile{name, seq})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if _, err := fmt.Sscanf(name, "snap-%d.snap", &seq); err == nil {
				snaps = append(snaps, dirFile{name, seq})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return segs, snaps, nil
}

// syncDir fsyncs the directory so created/removed names are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
