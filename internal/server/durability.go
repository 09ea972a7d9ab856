package server

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/engines"
	"repro/internal/mvutil"
	"repro/internal/stm"
	"repro/internal/wal"
)

// This file is the durable-server glue: boot-time recovery from the WAL
// directory, account re-creation from meta records, and the rotate → snapshot
// → prune checkpoint protocol. The log itself (format, fsync policies, replay
// fold) lives in internal/wal; the commit-path hooks live in the engines; what
// belongs here is the mapping between accounts and variable ids, which is the
// only state the log cannot reconstruct on its own.
//
// Variable-id prediction: the engines assign variable ids densely in NewVar
// order, and the ledger creates exactly two variables per account (balance,
// then held) under the registry lock, in meta-record order. So the k-th meta
// record (0-based) owns ids 2k+1 and 2k+2 — recovery re-creates accounts in
// meta order and asserts the prediction, turning any drift between this
// reasoning and the engine into a loud boot failure instead of silently
// crediting the wrong account.

// accountMeta is the WAL meta-record payload for one account creation.
type accountMeta struct {
	ID      string `json:"id"`
	Balance int64  `json:"balance"`
}

// walHooks are the fault points every durable server opens its log with;
// only tests set them (export_test.go).
var walHooks wal.Hooks

// openDurable recovers the WAL directory and builds the engine with the log
// attached. Meta records already recovered must not be re-appended on the next
// checkpoint's rotation boundary, hence MetaStart.
func openDurable(cfg *Config) (stm.TM, *wal.Writer, *wal.Recovered, error) {
	policy, err := wal.ParsePolicy(cfg.FsyncPolicy)
	if err != nil {
		return nil, nil, nil, err
	}
	rec, err := wal.Recover(cfg.WALDir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: recover %s: %w", cfg.WALDir, err)
	}
	w, err := wal.Open(wal.Options{
		Dir:       cfg.WALDir,
		Policy:    policy,
		MetaStart: uint64(len(rec.Metas)),
		Hooks:     walHooks,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tm, err := engines.New(cfg.Engine, engines.WithLogger(w))
	if err != nil {
		w.Close()
		return nil, nil, nil, err
	}
	return tm, w, rec, nil
}

// recover rebuilds the ledger from a recovery result: every meta record
// becomes an account whose balance/held come from the replay fold (falling
// back to the meta's initial balance for variables the snapshot+log carry no
// value for — an account created but never touched). The engine clock is then
// seeded past the highest replayed serial.
func (s *Server) recover(rec *wal.Recovered) error {
	if err := s.ledger.replay(rec); err != nil {
		return err
	}
	if c := mvutil.Of(s.tm); c != nil {
		c.SeedClock(rec.Serial)
	}
	if len(rec.Metas) > 0 || rec.Records > 0 {
		s.log.Info("wal recovery complete",
			"dir", s.cfg.WALDir, "accounts", len(rec.Metas), "records", rec.Records,
			"serial", rec.Serial, "snapshotSerial", rec.SnapshotSerial, "torn", rec.Torn)
	}
	return nil
}

// replay re-creates the recovered accounts in meta order. No meta is appended
// (these creations are already in the log); the variable-id assertion is the
// recovery oracle for the prediction scheme described above.
func (l *Ledger) replay(rec *wal.Recovered) error {
	nextID := uint64(1)
	for i, payload := range rec.Metas {
		var m accountMeta
		if err := json.Unmarshal(payload, &m); err != nil {
			return fmt.Errorf("server: meta record %d: %w", i, err)
		}
		bal, err := asInt64(rec.Value(nextID, m.Balance))
		if err != nil {
			return fmt.Errorf("server: account %q balance: %w", m.ID, err)
		}
		held, err := asInt64(rec.Value(nextID+1, int64(0)))
		if err != nil {
			return fmt.Errorf("server: account %q held: %w", m.ID, err)
		}
		if err := l.recoverCreate(m.ID, bal, held, nextID, payload); err != nil {
			return err
		}
		nextID += 2
	}
	return nil
}

// recoverCreate installs one recovered account, asserting that the engine
// handed out exactly the variable ids the log's commit records refer to.
func (l *Ledger) recoverCreate(id string, balance, held int64, wantID uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.accounts[id]; ok {
		return fmt.Errorf("server: duplicate account %q in recovered metas", id)
	}
	bal := stm.NewTVar(l.tm, balance)
	hld := stm.NewTVar(l.tm, held)
	if got := varID(bal); got != wantID {
		return fmt.Errorf("server: account %q balance var id %d, predicted %d", id, got, wantID)
	}
	if got := varID(hld); got != wantID+1 {
		return fmt.Errorf("server: account %q held var id %d, predicted %d", id, got, wantID+1)
	}
	l.register(id, &account{balance: bal, held: hld}, payload)
	return nil
}

// varID extracts the engine-assigned variable id (0 when the engine does not
// number its variables — never the case for the WAL-capable engines).
func varID(v *stm.TVar[int64]) uint64 {
	if iv, ok := v.Raw().(interface{ VarID() uint64 }); ok {
		return iv.VarID()
	}
	return 0
}

// asInt64 narrows a replayed value to the ledger's int64 domain.
func asInt64(v stm.Value) (int64, error) {
	switch n := v.(type) {
	case int64:
		return n, nil
	case int:
		return int64(n), nil
	case uint64:
		return int64(n), nil
	}
	return 0, fmt.Errorf("unexpected recovered value type %T", v)
}

// WAL exposes the log writer on a durable server (nil otherwise).
func (s *Server) WAL() *wal.Writer { return s.wal }

// Checkpoint writes a durable snapshot of the full ledger and prunes the log
// segments it covers. The protocol and its correctness argument (DESIGN.md
// §16):
//
//  1. Under the registry write lock, copy the meta payloads and rotate the
//     log. The lock freezes creation, so every meta record in a pre-rotation
//     (prunable) segment is in the copy; rotation guarantees every commit
//     record appended so far lives in a segment below the returned sequence.
//  2. Sample the engine clock c0 after the rotation. Both engines bump the
//     clock before appending, so any record in a prunable segment has
//     serial ≤ c0.
//  3. Read every account in one read-only transaction started after c0. The
//     engines publish a commit's versions only at lock release, which happens
//     after its append and before its acknowledgement — so every record with
//     serial ≤ c0 is fully visible to this read, and its effect (or a later
//     overwrite, which replay prefers anyway) is in the values captured here.
//  4. Write the snapshot with Serial = c0 under the rotation sequence, then
//     prune segments below it. Replay skips records with serial ≤ c0 (the
//     snapshot covers them) and folds the retained suffix on top.
//
// Checkpoints serialize on ckptMu; concurrent commits and creations are not
// blocked outside the brief step-1 critical section.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	l := s.ledger
	l.mu.Lock()
	metas := make([][]byte, len(l.metas))
	copy(metas, l.metas)
	accs := make([]*account, len(l.order))
	for i, id := range l.order {
		accs[i] = l.accounts[id]
	}
	seq, err := s.wal.Rotate()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("server: checkpoint rotate: %w", err)
	}

	c := mvutil.Of(s.tm)
	if c == nil {
		return fmt.Errorf("server: engine %T has no commit clock; cannot checkpoint", s.tm)
	}
	snap := &wal.Snapshot{
		Serial: c.Clock(),
		Metas:  metas,
		Values: make(map[uint64]wal.Value, 2*len(accs)),
	}
	if err := stm.Atomically(s.tm, true, func(tx stm.Tx) error {
		clear(snap.Values) // the body may re-run
		for _, a := range accs {
			snap.Values[varID(a.balance)] = a.balance.Get(tx)
			snap.Values[varID(a.held)] = a.held.Get(tx)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("server: checkpoint scan: %w", err)
	}
	if err := wal.WriteSnapshot(s.wal.Dir(), seq, snap); err != nil {
		return fmt.Errorf("server: checkpoint write: %w", err)
	}
	if err := s.wal.Prune(seq); err != nil {
		return fmt.Errorf("server: checkpoint prune: %w", err)
	}
	s.log.Info("checkpoint complete", "seq", seq, "serial", snap.Serial, "accounts", len(accs))
	return nil
}

// checkpointLoop runs periodic checkpoints until Close.
func (s *Server) checkpointLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				s.log.Warn("periodic checkpoint failed", "err", err)
			}
		}
	}
}
