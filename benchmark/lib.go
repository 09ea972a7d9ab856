package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/ds/skiplist"
	"repro/internal/ds/sortedlist"
	"repro/internal/engines"
	"repro/internal/stm"
)

// intSet is the part of ds/sortedlist and ds/skiplist the set workloads use.
type intSet interface {
	Contains(tx stm.Tx, k int64) bool
	Insert(tx stm.Tx, k int64) bool
	Remove(tx stm.Tx, k int64) bool
	Keys(tx stm.Tx) []int64
}

// populateBatch is how many initial keys one set-up transaction inserts.
const populateBatch = 256

// apply runs one set operation as one transaction of tm and reports whether
// the committed attempt changed the set.
func apply(tm stm.TM, set intSet, o op) (changed bool, err error) {
	switch o.kind {
	case opContains:
		err = stm.Atomically(tm, true, func(tx stm.Tx) error {
			set.Contains(tx, o.a)
			return nil
		})
	case opInsert:
		err = stm.Atomically(tm, false, func(tx stm.Tx) error {
			changed = set.Insert(tx, o.a) //twm:allow txpurity overwritten by every attempt; only the committed attempt's value is read, for the size check
			return nil
		})
	case opRemove:
		err = stm.Atomically(tm, false, func(tx stm.Tx) error {
			changed = set.Remove(tx, o.a) //twm:allow txpurity overwritten by every attempt; only the committed attempt's value is read, for the size check
			return nil
		})
	default:
		err = fmt.Errorf("set workload got operation kind %d", o.kind)
	}
	return changed, err
}

// libWorker is one closed-loop worker's tally.
type libWorker struct {
	samples
	inserted        int64 // committed inserts that changed the set
	removed         int64
	failed          uint64
	atom            []int64 // traced: durations of the operations whose barriers were not timed
	retryWaitNS     int64   // traced: Σ (Atomically − Σ attempts) over sampled operations
	sampledOps      int64
	firstErr        error
	sink            *sink
	lastOpCompleted time.Time
}

// runLib measures one repetition of a set workload: fresh engine, fresh set,
// W closed-loop workers calling stm.Atomically.
func runLib(rc repConfig) (*repResult, error) {
	wl := rc.wl
	res := newRepResult(rc)

	setupStart := time.Now()
	engine, err := engines.New(rc.engineName())
	if err != nil {
		return nil, err
	}
	var tm stm.TM = engine
	var timed *timedTM
	if rc.traced {
		// Set-up runs through the wrapper too (unsampled views would cost the
		// same); its counts are dropped when the window opens.
		timed = newTimedTM(engine, wl.sampleEvery, newSink(0))
		tm = timed
	}
	var set intSet
	if wl.kind == kindList {
		set = sortedlist.New(tm)
	} else {
		set = skiplist.New(tm)
	}
	keys := populateKeys(wl, rc.seed)
	for lo := 0; lo < len(keys); lo += populateBatch {
		batch := keys[lo:min(lo+populateBatch, len(keys))]
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			for _, k := range batch {
				set.Insert(tx, k)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	workers := make([]*libWorker, rc.workers)
	for w := range workers {
		workers[w] = &libWorker{samples: newSamples(rc, res)}
		if rc.traced {
			workers[w].sink = newSink(spanCapPerSink)
		}
	}
	streams := make([]*opStream, rc.workers)
	for w := range streams {
		streams[w] = newOpStream(wl, rc.seed, w)
	}
	if timed != nil {
		timed.sink.core = coreAgg{}
	}
	res.setupS = time.Since(setupStart).Seconds()
	if rc.setupOnly {
		return res, nil
	}
	win := openWindow(engine)

	start := time.Now()
	deadline := start.Add(rc.dur)
	var wg sync.WaitGroup
	for w := range workers {
		workers[w].open(start)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if rc.traced {
				workers[w].runTraced(timed.view(workers[w].sink), set, streams[w], deadline, uint64(w), wl.sampleEvery)
			} else {
				workers[w].run(tm, set, streams[w], deadline)
			}
		}(w)
	}
	wg.Wait()
	end := start
	for _, w := range workers {
		if w.lastOpCompleted.After(end) {
			end = w.lastOpCompleted
		}
	}
	res.window = end.Sub(start)
	win.close(res)

	wantSize := int64(len(keys))
	var atom []int64
	var retryWaitNS, sampledOps int64
	var core coreAgg
	tallies := make([]*samples, len(workers))
	for i, w := range workers {
		tallies[i] = &w.samples
		res.failed += w.failed
		wantSize += w.inserted - w.removed
		if w.firstErr != nil {
			res.fail("operation error: %v", w.firstErr)
		}
		if w.sink != nil {
			atom = append(atom, w.atom...)
			retryWaitNS += w.retryWaitNS
			sampledOps += w.sampledOps
			core.add(&w.sink.core)
			res.sinks = append(res.sinks, w.sink)
		}
	}
	res.tally(tallies)
	res.perOp()

	// Correctness: one final read-only transaction must find the keys strictly
	// sorted and as many as the committed attempts said.
	var final []int64
	if err := stm.Atomically(engine, true, func(tx stm.Tx) error {
		final = set.Keys(tx) //twm:allow txpurity overwritten by every attempt; a read-only transaction commits its only attempt's value
		return nil
	}); err != nil {
		res.fail("final scan: %v", err)
	}
	for i := 1; i < len(final); i++ {
		if final[i-1] >= final[i] {
			res.fail("keys not strictly sorted at %d: %d then %d", i, final[i-1], final[i])
			break
		}
	}
	if int64(len(final)) != wantSize {
		res.fail("set size %d, want %d (initial %d + committed inserts − committed removes)", len(final), wantSize, len(keys))
	}

	if rc.traced {
		ops := int64(res.attempted - res.failed)
		res.coreLayer(&core, wl.sampleEvery)
		slices.Sort(atom)
		res.layer["stm.atomically_p99_us"] = quantile(atom, 0.99) / 1e3
		res.layer["stm.retry_wait_us_per_op"] = mean(float64(retryWaitNS), sampledOps) / 1e3
		// The other clock read of every timed call falls outside its interval,
		// into the body's share of the attempt.
		res.layer["ds.body_self_us"] = (mean(float64(core.attemptNS-core.barrierNS()), core.sAttempts) - clockNS*mean(float64(core.timedCalls()), core.sAttempts)) / 1e3
		res.layer["ds.reads_per_op"] = mean(float64(core.reads), ops)
		res.layer["gen.attempted"] = float64(res.attempted)
	}
	return res, nil
}

func (w *libWorker) run(tm stm.TM, set intSet, ops *opStream, deadline time.Time) {
	t := time.Now()
	for t.Before(deadline) {
		o := ops.next()
		changed, err := apply(tm, set, o)
		// One clock read both ends this operation and starts the next: the
		// sample includes drawing the operation, a few tens of nanoseconds.
		t2 := time.Now()
		w.record(o, changed, err, t2, int64(t2.Sub(t)))
		t = t2
	}
	w.lastOpCompleted = t
}

func (w *libWorker) runTraced(v *view, set intSet, ops *opStream, deadline time.Time, worker uint64, every int) {
	t := time.Now()
	for i := uint64(1); t.Before(deadline); i++ {
		o := ops.next()
		sampled := i%uint64(every) == 0
		v.op = opTrace{id: worker<<40 | i, sampled: sampled, spans: sampled && w.sink.room()}
		var start int64
		if sampled {
			start = nowNS()
		}
		changed, err := apply(v, set, o)
		if sampled {
			end := nowNS()
			w.retryWaitNS += end - start - v.op.attemptNS
			w.sampledOps++
			if v.op.spans {
				w.sink.span(spanAtomically, v.op.id, "", start, end)
			}
		}
		t2 := time.Now()
		w.record(o, changed, err, t2, int64(t2.Sub(t)))
		if !sampled {
			w.atom = append(w.atom, int64(t2.Sub(t)))
		}
		t = t2
	}
	w.lastOpCompleted = t
}

func (w *libWorker) record(o op, changed bool, err error, done time.Time, ns int64) {
	w.tick(done)
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.samples.record(o.kind.isRead(), ns)
	if changed {
		if o.kind == opInsert {
			w.inserted++
		} else {
			w.removed++
		}
	}
}
