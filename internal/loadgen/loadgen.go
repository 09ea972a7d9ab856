// Package loadgen is the open-loop load generator for the twm-server front
// end (cmd/twm-load drives it). Open loop is the property that matters:
// arrivals are scheduled by a rate process, not by completions, so a slow or
// shedding server faces the same offered load a real population would apply
// — queueing delay shows up in the latency distribution instead of silently
// throttling the generator (the coordinated-omission trap closed-loop
// harnesses fall into). Latency is therefore measured from each request's
// *scheduled* arrival instant to its response, not from when a goroutine got
// around to sending it.
//
// The workload is the ledger API's mixed traffic: updates (transfers between
// Zipf-skewed accounts) and read-only balance lookups, in a configurable
// ratio. Results report p50/p99/p999/max latency per class plus outcome
// counts — commits, domain conflicts, 429 sheds, 499/504 cancels.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Config parameterizes one load run against one server.
type Config struct {
	// Rate is the offered load in arrivals/second (open loop). Default 500.
	Rate float64
	// Duration is how long arrivals are generated. Default 5s.
	Duration time.Duration
	// Accounts is the key space; the server must have at least this many
	// pre-created accounts named "0".."N-1". Default 1024.
	Accounts int
	// ZipfS is the account-selection skew (0 uniform; 1.1 ≈ web traffic).
	ZipfS float64
	// UpdatePct is the fraction of arrivals that are transfers (the rest are
	// read-only balance lookups). Default 0.5.
	UpdatePct float64
	// Amount is the per-transfer amount (default 1; small keeps insufficient-
	// funds conflicts rare so the abort machinery, not the domain, is on
	// trial).
	Amount int64
	// Seed makes the arrival schedule and key draws replayable.
	Seed uint64
	// Timeout bounds each HTTP request client-side (default 5s — above the
	// server's own transaction deadline, so server-side statuses win).
	Timeout time.Duration
	// MaxInFlight caps concurrently outstanding requests (default 4096). An
	// arrival past the cap is counted as Dropped rather than blocking the
	// schedule — the generator itself must never close the loop.
	MaxInFlight int
}

func (c *Config) fill() {
	if c.Rate <= 0 {
		c.Rate = 500
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Accounts <= 0 {
		c.Accounts = 1024
	}
	if c.UpdatePct < 0 || c.UpdatePct > 1 {
		c.UpdatePct = 0.5
	}
	if c.Amount <= 0 {
		c.Amount = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
}

// OpStats aggregates one traffic class (updates, read-only, or all).
type OpStats struct {
	Sent      uint64
	OK        uint64 // 2xx: committed
	Conflicts uint64 // 4xx domain refusals (insufficient funds, ...)
	Shed      uint64 // 429: admission gate refused
	Cancelled uint64 // 499/504: cancelled or timed out
	Errors    uint64 // transport failures and 5xx
	Dropped   uint64 // arrivals past MaxInFlight, never sent

	P50ms  float64
	P99ms  float64
	P999ms float64
	MaxMs  float64
	MeanMs float64
}

// Result is one load run against one server.
type Result struct {
	OfferedRate  float64
	AchievedRate float64 // sent / wall time

	Update   OpStats
	ReadOnly OpStats
	All      OpStats
}

// sample is one completed request's measurement.
type sample struct {
	update  bool
	status  int // 0 = transport error
	latency time.Duration
}

// collector accumulates samples; one mutex is plenty at the rates the
// container sustains (the HTTP round trip dwarfs the append).
type collector struct {
	mu      sync.Mutex
	samples []sample
}

func (c *collector) add(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// Run offers cfg's load to the server at baseURL and aggregates the outcome.
// ctx aborts the run early (the schedule stops; in-flight requests finish).
func Run(ctx context.Context, baseURL string, cfg Config) (Result, error) {
	cfg.fill()
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.MaxInFlight,
			MaxIdleConnsPerHost: cfg.MaxInFlight,
		},
	}
	defer client.CloseIdleConnections()

	zipf := xrand.NewZipf(cfg.Accounts, cfg.ZipfS)
	rng := xrand.New(xrand.Mix(cfg.Seed))
	col := &collector{samples: make([]sample, 0, int(cfg.Rate*cfg.Duration.Seconds())+16)}

	var wg sync.WaitGroup
	inflight := make(chan struct{}, cfg.MaxInFlight)
	var dropped struct {
		update, ro uint64
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	// Poisson arrivals: exponential interarrival times at the offered rate,
	// drawn from the seeded stream so a run is replayable.
	next := start
	for {
		next = next.Add(time.Duration(-math.Log(1-rng.Float64()) / cfg.Rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		update := rng.Float64() < cfg.UpdatePct
		var path, body string
		if update {
			from := zipf.Next(rng)
			to := zipf.Next(rng)
			for to == from {
				to = zipf.Next(rng)
			}
			path = "/v1/transfer"
			body = fmt.Sprintf(`{"from":"%d","to":"%d","amount":%d}`, from, to, cfg.Amount)
		} else {
			path = fmt.Sprintf("/v1/accounts/%d", zipf.Next(rng))
		}
		select {
		case inflight <- struct{}{}:
		default:
			// The generator would close the loop if it blocked here; record
			// the arrival as dropped offered load instead.
			if update {
				dropped.update++
			} else {
				dropped.ro++
			}
			continue
		}
		scheduled := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			status := fire(ctx, client, baseURL, path, body)
			col.add(sample{update: update, status: status, latency: time.Since(scheduled)})
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	res := Result{OfferedRate: cfg.Rate}
	res.Update = summarize(col.samples, true)
	res.ReadOnly = summarize(col.samples, false)
	res.All = merge(col.samples)
	res.Update.Dropped, res.ReadOnly.Dropped = dropped.update, dropped.ro
	res.All.Dropped = dropped.update + dropped.ro
	res.AchievedRate = float64(res.All.Sent) / wall.Seconds()
	return res, nil
}

// fire sends one request and classifies the outcome by status (0 = transport
// error).
func fire(ctx context.Context, client *http.Client, baseURL, path, body string) int {
	var (
		resp *http.Response
		err  error
	)
	if body == "" {
		req, rerr := http.NewRequestWithContext(ctx, "GET", baseURL+path, nil)
		if rerr != nil {
			return 0
		}
		resp, err = client.Do(req)
	} else {
		req, rerr := http.NewRequestWithContext(ctx, "POST", baseURL+path, strings.NewReader(body))
		if rerr != nil {
			return 0
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err = client.Do(req)
	}
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// summarize aggregates the samples of one class.
func summarize(samples []sample, update bool) OpStats {
	var lat []time.Duration
	var st OpStats
	for _, s := range samples {
		if s.update != update {
			continue
		}
		classify(&st, s, &lat)
	}
	percentiles(&st, lat)
	return st
}

// merge aggregates all samples.
func merge(samples []sample) OpStats {
	var lat []time.Duration
	var st OpStats
	for _, s := range samples {
		classify(&st, s, &lat)
	}
	percentiles(&st, lat)
	return st
}

func classify(st *OpStats, s sample, lat *[]time.Duration) {
	st.Sent++
	switch {
	case s.status >= 200 && s.status < 300:
		st.OK++
		*lat = append(*lat, s.latency) // percentiles are over served requests
	case s.status == http.StatusTooManyRequests:
		st.Shed++
	case s.status == 499 || s.status == http.StatusGatewayTimeout:
		st.Cancelled++
	case s.status >= 400 && s.status < 500:
		st.Conflicts++
		*lat = append(*lat, s.latency) // a refusal is still a served answer
	default: // transport errors (0) and 5xx
		st.Errors++
	}
}

func percentiles(st *OpStats, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	q := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	st.P50ms = ms(q(0.50))
	st.P99ms = ms(q(0.99))
	st.P999ms = ms(q(0.999))
	st.MaxMs = ms(lat[len(lat)-1])
	st.MeanMs = ms(sum / time.Duration(len(lat)))
}
