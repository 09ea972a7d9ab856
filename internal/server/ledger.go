package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/stm"
)

// Domain errors. The HTTP layer maps them to statuses (404 for ErrNotFound,
// 409 for the rest); they are user-level aborts, so the transaction that
// returns one is not retried and makes no durable change.
var (
	ErrNotFound         = errors.New("ledger: account not found")
	ErrExists           = errors.New("ledger: account already exists")
	ErrInsufficient     = errors.New("ledger: insufficient available funds")
	ErrInsufficientHold = errors.New("ledger: release/capture exceeds held funds")
	ErrBadAmount        = errors.New("ledger: amount must be positive")
)

// account is one ledger row: two transactional variables, so any mix of
// transfers, reservations and reads composes atomically. Balance counts all
// funds including held ones; held is the reserved slice, so available funds
// are balance-held. The invariant 0 <= held <= balance is maintained by every
// operation and audited by the chaos soak.
type account struct {
	balance *stm.TVar[int64]
	held    *stm.TVar[int64]
}

// Ledger is the account table. The registry itself is a plain RWMutex map,
// not a transactional structure: TVars must be published before they are
// shared (stm.TM.NewVar is not transactional), so account creation takes the
// write lock once and every request-path lookup is a read-locked map hit.
// All money movement happens inside transactions over the accounts' TVars.
//
// On a durable server (Config.WALDir) the ledger also owns the metadata side
// of the log: each creation appends one meta record — payload, variable
// allocation and registration all under the write lock, so the meta sequence
// order equals the creation order equals the variable-id order, which is what
// lets recovery re-create accounts with the exact variable ids the log's
// commit records refer to.
type Ledger struct {
	tm stm.TM

	// logMeta, when non-nil, durably appends one creation record
	// (wal.Writer.AppendMeta); a refusal fails the creation — an account the
	// log does not know cannot be recovered.
	logMeta func(payload []byte) error

	mu       sync.RWMutex
	accounts map[string]*account
	order    []string // ids in creation order (the meta sequence order)
	metas    [][]byte // meta payloads in creation order (checkpoint copies)
}

// NewLedger returns an empty ledger over tm.
func NewLedger(tm stm.TM) *Ledger {
	return &Ledger{tm: tm, accounts: make(map[string]*account)}
}

// Create registers a new account with an initial balance. It is
// non-transactional (variable allocation happens outside any transaction);
// the handle is published under the registry lock before any transaction can
// reach it. Allocation happens under the lock too, so on a durable ledger
// the variable ids follow the meta sequence order (see the type comment).
func (l *Ledger) Create(id string, initial int64) error {
	if initial < 0 {
		return ErrBadAmount
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.accounts[id]; ok {
		return ErrExists
	}
	var payload []byte
	if l.logMeta != nil {
		var err error
		if payload, err = json.Marshal(accountMeta{ID: id, Balance: initial}); err != nil {
			return err
		}
		if err := l.logMeta(payload); err != nil {
			return fmt.Errorf("ledger: durable create: %w", err)
		}
	}
	bal := stm.NewTVar(l.tm, initial)
	held := stm.NewTVar(l.tm, int64(0))
	l.register(id, &account{balance: bal, held: held}, payload)
	return nil
}

// register publishes one account under the held write lock.
func (l *Ledger) register(id string, a *account, payload []byte) {
	l.accounts[id] = a
	if l.logMeta != nil {
		l.order = append(l.order, id)
		l.metas = append(l.metas, payload)
	}
}

// lookup resolves an account id outside any transaction.
func (l *Ledger) lookup(id string) (*account, error) {
	l.mu.RLock()
	a := l.accounts[id]
	l.mu.RUnlock()
	if a == nil {
		return nil, ErrNotFound
	}
	return a, nil
}

// Size reports the number of accounts.
func (l *Ledger) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.accounts)
}

// IDs returns the account ids, sorted (reporting and audits).
func (l *Ledger) IDs() []string {
	l.mu.RLock()
	ids := make([]string, 0, len(l.accounts))
	for id := range l.accounts {
		ids = append(ids, id)
	}
	l.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// BalanceView is one account's state as read by a single transaction.
type BalanceView struct {
	ID        string `json:"id"`
	Balance   int64  `json:"balance"`
	Held      int64  `json:"held"`
	Available int64  `json:"available"`
}

// readInto snapshots the account inside tx.
func (a *account) readInto(tx stm.Tx, id string, out *BalanceView) {
	bal, held := a.balance.Get(tx), a.held.Get(tx)
	out.ID, out.Balance, out.Held, out.Available = id, bal, held, bal-held
}

// transfer moves amount from one account's available funds to another's,
// atomically. Bodies re-execute on abort; all state lives in the TVars.
func transfer(tx stm.Tx, from, to *account, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	fb := from.balance.Get(tx)
	if fb-from.held.Get(tx) < amount {
		return ErrInsufficient
	}
	from.balance.Set(tx, fb-amount)
	to.balance.Set(tx, to.balance.Get(tx)+amount)
	return nil
}

// deposit credits amount to the account.
func deposit(tx stm.Tx, a *account, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	a.balance.Set(tx, a.balance.Get(tx)+amount)
	return nil
}

// reserve places a hold on amount of the account's available funds (the
// two-step booking flow: reserve, then capture or release).
func reserve(tx stm.Tx, a *account, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	h := a.held.Get(tx)
	if a.balance.Get(tx)-h < amount {
		return ErrInsufficient
	}
	a.held.Set(tx, h+amount)
	return nil
}

// release returns amount of held funds to the available pool.
func release(tx stm.Tx, a *account, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	h := a.held.Get(tx)
	if h < amount {
		return ErrInsufficientHold
	}
	a.held.Set(tx, h-amount)
	return nil
}

// capture consumes amount of held funds: the hold is lifted and the balance
// debited in the same transaction (the second half of a reservation).
func capture(tx stm.Tx, a *account, amount int64) error {
	if amount <= 0 {
		return ErrBadAmount
	}
	h := a.held.Get(tx)
	if h < amount {
		return ErrInsufficientHold
	}
	a.held.Set(tx, h-amount)
	a.balance.Set(tx, a.balance.Get(tx)-amount)
	return nil
}
