package main

import (
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/stm"
	"repro/internal/wal"
)

// probeWAL drives wal's public functions directly: workers goroutines append
// transfer-shaped commit records to a scratch log at the served policy and
// wait for each to be durable. It is the log's cost with the engine, the
// combiner and the server taken away.
func probeWAL(scratch string, workers int, dur time.Duration, layer map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	policy, err := wal.ParsePolicy(fsyncPolicy)
	if err != nil {
		return err
	}
	w, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	if err != nil {
		return err
	}
	type tally struct {
		appendNS int64
		durable  []int64
		err      error
	}
	tallies := make([]tally, workers)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for g := range tallies {
		wg.Add(1)
		go func(g int, t *tally) {
			defer wg.Done()
			for i := uint64(1); time.Now().Before(deadline); i++ {
				// A transfer's write set: two accounts' balance variables.
				serial := i*uint64(workers) + uint64(g)
				from, to := serial%1024, (serial+1)%1024
				rec := []stm.CommitRecord{{Serial: serial, Writes: []stm.LoggedWrite{
					{VarID: 2*from + 1, Value: int64(initialBalance - 1)},
					{VarID: 2*to + 1, Value: int64(initialBalance + 1)},
				}}}
				t0 := time.Now()
				lsn, err := w.Append(rec)
				t1 := time.Now()
				if err == nil {
					err = w.Durable(lsn)
				}
				if err != nil {
					t.err = err
					return
				}
				t.appendNS += int64(t1.Sub(t0))
				t.durable = append(t.durable, int64(time.Since(t1)))
			}
		}(g, &tallies[g])
	}
	wg.Wait()
	_, _, _, latched := w.WALCounters()
	if err := w.Close(); err != nil {
		return err
	}
	if latched != nil {
		return latched
	}
	var appendNS int64
	var durable []int64
	for i := range tallies {
		if tallies[i].err != nil {
			return tallies[i].err
		}
		appendNS += tallies[i].appendNS
		durable = append(durable, tallies[i].durable...)
	}
	slices.Sort(durable)
	layer["wal.append_us"] = mean(float64(appendNS), int64(len(durable))) / 1e3
	layer["wal.durable_p50_us"] = quantile(durable, 0.50) / 1e3
	layer["wal.durable_p99_us"] = quantile(durable, 0.99) / 1e3
	return nil
}
