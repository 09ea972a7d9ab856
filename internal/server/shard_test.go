package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"repro/internal/server"
)

// Sharded durable server tests (DESIGN.md §17): the account-colocating
// sharder keeps every single-account operation on one clock domain, commit
// records carry shard vectors, and restart fast-forwards each shard clock
// past its own replayed floor.

func shardedConfig(dir string, shards int) server.Config {
	cfg := durableConfig(dir)
	cfg.ClockShards = shards
	return cfg
}

// TestShardedDurableRestart runs the zero-loss restart walk on a 4-shard
// engine: clean restart from the final checkpoint (whose snapshot carries the
// clock vector), then a crash-style restart replaying sharded commit records.
func TestShardedDurableRestart(t *testing.T) {
	dir := t.TempDir()

	s1, err := server.New(shardedConfig(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	h := s1.Handler()
	mustPost(t, h, "/v1/deposit", `{"account":"0","amount":100}`)        // single-shard
	mustPost(t, h, "/v1/transfer", `{"from":"1","to":"2","amount":250}`) // cross-shard
	mustPost(t, h, "/v1/reserve", `{"account":"3","amount":50}`)
	mustPost(t, h, "/v1/accounts", `{"id":"extra","balance":500}`)
	mustPost(t, h, "/v1/deposit", `{"account":"extra","amount":25}`)
	s1.Close()

	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot after clean close, got %v", snaps)
	}

	s2, err := server.New(shardedConfig(dir, 4))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	h2 := s2.Handler()
	for _, tc := range []struct {
		id            string
		balance, held int64
	}{
		{"0", 1100, 0}, {"1", 750, 0}, {"2", 1250, 0}, {"3", 1000, 50}, {"extra", 525, 0},
	} {
		if b, hd := getBalance(t, h2, tc.id); b != tc.balance || hd != tc.held {
			t.Errorf("after restart, account %s: balance=%d held=%d, want %d/%d", tc.id, b, hd, tc.balance, tc.held)
		}
	}

	// Crash-style stop: more acknowledged writes, log closed, no checkpoint —
	// the next boot replays the snapshot plus sharded record suffix.
	mustPost(t, h2, "/v1/deposit", `{"account":"extra","amount":75}`)
	mustPost(t, h2, "/v1/transfer", `{"from":"0","to":"3","amount":40}`)
	s2.WAL().Close()
	s2.Close()

	s3, err := server.New(shardedConfig(dir, 4))
	if err != nil {
		t.Fatalf("crash restart: %v", err)
	}
	defer s3.Close()
	h3 := s3.Handler()
	if b, _ := getBalance(t, h3, "extra"); b != 600 {
		t.Errorf("after crash restart, extra balance=%d, want 600", b)
	}
	if b, _ := getBalance(t, h3, "0"); b != 1060 {
		t.Errorf("after crash restart, account 0 balance=%d, want 1060", b)
	}

	rr := get(h3, "/v1/audit")
	var audit struct {
		Accounts     int   `json:"accounts"`
		TotalBalance int64 `json:"totalBalance"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &audit); err != nil {
		t.Fatal(err)
	}
	if audit.Accounts != 5 || audit.TotalBalance != 4*1000+100+500+25+75 {
		t.Errorf("audit after two restarts: %+v", audit)
	}
}

// TestShardedRestartAfterReshard: booting with a different shard count than
// the log was written with must still recover — the seeding falls back to
// raising every clock past the global maximum.
func TestShardedRestartAfterReshard(t *testing.T) {
	dir := t.TempDir()
	s1, err := server.New(shardedConfig(dir, 8))
	if err != nil {
		t.Fatal(err)
	}
	h := s1.Handler()
	for i := 0; i < 4; i++ {
		mustPost(t, h, "/v1/deposit", fmt.Sprintf(`{"account":"%d","amount":10}`, i))
	}
	s1.WAL().Close() // crash shape: replay from raw sharded records
	s1.Close()

	s2, err := server.New(shardedConfig(dir, 2))
	if err != nil {
		t.Fatalf("resharded restart: %v", err)
	}
	defer s2.Close()
	h2 := s2.Handler()
	for i := 0; i < 4; i++ {
		if b, _ := getBalance(t, h2, fmt.Sprint(i)); b != 1010 {
			t.Errorf("account %d after resharded restart: %d, want 1010", i, b)
		}
	}
	// And commits keep flowing on the new layout.
	mustPost(t, h2, "/v1/transfer", `{"from":"0","to":"1","amount":5}`)
	if b, _ := getBalance(t, h2, "1"); b != 1015 {
		t.Errorf("post-reshard transfer: %d, want 1015", b)
	}
}

// TestShardedVolatileServer: ClockShards on a volatile (no-WAL) server just
// shards the engine clock; the API behaves identically.
func TestShardedVolatileServer(t *testing.T) {
	s := newTestServer(t, server.Config{
		Engine: "twm", Accounts: 8, InitialBalance: 100, ClockShards: 4,
	})
	h := s.Handler()
	mustPost(t, h, "/v1/transfer", `{"from":"0","to":"7","amount":30}`)
	if b, _ := getBalance(t, h, "7"); b != 130 {
		t.Errorf("transfer on sharded volatile server: %d, want 130", b)
	}
	rr := get(h, "/statsz")
	if rr.Code != http.StatusOK {
		t.Fatalf("statsz: %d", rr.Code)
	}
}
