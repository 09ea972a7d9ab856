package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engines"
	"repro/internal/stm"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// Durability experiment: the fsync-policy latency ladder (DESIGN.md §16).
//
// Every cell runs the same contended bank-transfer workload on a WAL-capable
// engine; what varies is the durability policy the commit path waits on:
//
//	off         no log attached — the in-memory baseline
//	interval    append only; a ticker fsyncs in the background
//	per-batch   a dedicated syncer groups concurrent commits into one fsync
//	per-commit  every commit waits for its own record to be durable
//
// Throughput tells half the story; the ladder is about the latency
// distribution, so each cell samples per-transaction commit latency and
// reports the percentiles. The artifact (BENCH_durability.json) records the
// ladder so successive PRs can see a durability regression as numbers.

// DurabilityConfig parameterizes the transfer workload.
type DurabilityConfig struct {
	Accounts int    `json:"accounts"` // bank accounts (transfer picks two at random)
	Seed     uint64 `json:"seed"`
}

// DefaultDurability is the container-sized configuration.
func DefaultDurability() DurabilityConfig { return DurabilityConfig{Accounts: 1024, Seed: 1} }

// DurabilityPolicies is the ladder, cheapest first.
func DurabilityPolicies() []string { return []string{"off", "interval", "per-batch", "per-commit"} }

// DurabilityEngines pairs the serial flagship with its group-commit variant —
// group commit amortizes the log append (one record per batch) exactly where
// per-commit fsync hurts the most.
func DurabilityEngines() []string { return []string{"twm", "twm-gc"} }

// DurabilityThreads is the single goroutine count of the ladder: enough
// concurrency that the per-batch and group-commit amortization has something
// to combine.
func DurabilityThreads() int { return 16 }

// DurabilityCell is one engine×policy measurement.
type DurabilityCell struct {
	Engine      string  `json:"engine"`
	Policy      string  `json:"policy"`
	Threads     int     `json:"threads"`
	Ops         uint64  `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50us       float64 `json:"p50_us"`
	P95us       float64 `json:"p95_us"`
	P99us       float64 `json:"p99_us"`
	MaxUs       float64 `json:"max_us"`
	WALAppended uint64  `json:"wal_appended,omitempty"`
	WALSynced   uint64  `json:"wal_synced,omitempty"`
	LogBytes    int64   `json:"log_bytes,omitempty"`
}

// DurabilityArtifact is the machine-readable ladder (BENCH_durability.json).
type DurabilityArtifact struct {
	Experiment string           `json:"experiment"`
	Config     DurabilityConfig `json:"config"`
	DurationMS int64            `json:"duration_ms_per_cell"`
	Cells      []DurabilityCell `json:"cells"`
}

// WriteJSON emits the artifact with stable indentation.
func (a DurabilityArtifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// DurabilityFigure runs the ladder and prints the table. Engines and policies
// come from the arguments so the CLI axes apply; threads is a single count.
func DurabilityFigure(w io.Writer, engineNames, policies []string, threads int, d time.Duration, dc DurabilityConfig) (DurabilityArtifact, error) {
	art := DurabilityArtifact{Experiment: "durability", Config: dc, DurationMS: d.Milliseconds()}
	tbl := NewTable(fmt.Sprintf("Durability: fsync-policy latency ladder, %d goroutines, %d accounts", threads, dc.Accounts),
		"engine", "policy", "tx/s", "p50 µs", "p95 µs", "p99 µs", "max µs", "appended")
	for _, engine := range engineNames {
		for _, policy := range policies {
			cell, err := runDurabilityCell(engine, policy, threads, d, dc)
			if err != nil {
				return art, err
			}
			art.Cells = append(art.Cells, cell)
			tbl.AddRow(engine, policy, FormatCount(cell.OpsPerSec),
				fmt.Sprintf("%.1f", cell.P50us), fmt.Sprintf("%.1f", cell.P95us),
				fmt.Sprintf("%.1f", cell.P99us), fmt.Sprintf("%.0f", cell.MaxUs),
				fmt.Sprintf("%d", cell.WALAppended))
		}
	}
	tbl.Fprint(w)
	return art, nil
}

// runDurabilityCell measures one engine×policy cell on a fresh engine and a
// fresh throwaway log directory.
func runDurabilityCell(engine, policy string, threads int, d time.Duration, dc DurabilityConfig) (DurabilityCell, error) {
	cell := DurabilityCell{Engine: engine, Policy: policy, Threads: threads}

	var (
		tm stm.TM
		w  *wal.Writer
	)
	if policy == "off" {
		var err error
		if tm, err = engines.New(engine); err != nil {
			return cell, err
		}
	} else {
		pol, err := wal.ParsePolicy(policy)
		if err != nil {
			return cell, err
		}
		dir, err := os.MkdirTemp("", "twm-bench-wal-")
		if err != nil {
			return cell, err
		}
		defer os.RemoveAll(dir)
		if w, err = wal.Open(wal.Options{Dir: dir, Policy: pol}); err != nil {
			return cell, err
		}
		defer w.Close()
		if tm, err = engines.New(engine, engines.WithLogger(w)); err != nil {
			return cell, err
		}
	}

	vars := make([]*stm.TVar[int64], dc.Accounts)
	for i := range vars {
		vars[i] = stm.NewTVar(tm, int64(1000))
	}

	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		mu    sync.Mutex
		lats  []time.Duration
		total uint64
	)
	start := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(xrand.Mix(dc.Seed ^ uint64(g+1)))
			local := make([]time.Duration, 0, 4096)
			ops := uint64(0)
			for !stop.Load() {
				from, to := rng.Intn(dc.Accounts), rng.Intn(dc.Accounts)
				if from == to {
					continue
				}
				t0 := time.Now()
				err := stm.Atomically(tm, false, func(tx stm.Tx) error {
					b := vars[from].Get(tx)
					if b < 1 {
						return nil
					}
					vars[from].Set(tx, b-1) //twm:allow abortshape insufficient-funds guard is the workload's inherent check-then-act
					vars[to].Set(tx, vars[to].Get(tx)+1)
					return nil
				})
				if err != nil {
					return // a latched log ends the cell early; counters still report
				}
				local = append(local, time.Since(t0))
				ops++
			}
			mu.Lock()
			lats = append(lats, local...)
			total += ops
			mu.Unlock()
		}(g)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	cell.Ops = total
	cell.OpsPerSec = float64(total) / elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	us := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(q * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Microsecond)
	}
	cell.P50us, cell.P95us, cell.P99us, cell.MaxUs = us(0.50), us(0.95), us(0.99), us(1)

	if w != nil {
		appended, synced, _, werr := w.WALCounters()
		if werr != nil {
			return cell, fmt.Errorf("bench: %s/%s: log failed mid-cell: %w", engine, policy, werr)
		}
		cell.WALAppended, cell.WALSynced = appended, synced
		filepath.Walk(w.Dir(), func(_ string, info os.FileInfo, err error) error { //nolint:errcheck
			if err == nil && !info.IsDir() {
				cell.LogBytes += info.Size()
			}
			return nil
		})
	}
	return cell, nil
}
