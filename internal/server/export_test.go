package server

import "repro/internal/wal"

// SetWALHooks makes every durable server built until restore runs open its
// log with h.
func SetWALHooks(h wal.Hooks) (restore func()) {
	old := walHooks
	walHooks = h
	return func() { walHooks = old }
}
