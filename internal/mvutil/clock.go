package mvutil

import "sync/atomic"

// Clock is the commit clock: one counter alone on its cache line. The padding
// keeps the word every Begin loads and every commit advances off the lines of
// the fields the engine stores to around it, so their stores do not ship the
// clock line between cores as false sharing (TestClockPadded pins the layout).
type Clock struct {
	_ [64]byte
	v atomic.Uint64
	_ [56]byte
}

// Load returns the clock.
func (c *Clock) Load() uint64 { return c.v.Load() }

// Add advances the clock by delta and returns the new value: one fetch-add
// draws a whole round's orders.
func (c *Clock) Add(delta uint64) uint64 { return c.v.Add(delta) }

// Raise CAS-maxes the clock to at least v (recovery fast-forward).
func (c *Clock) Raise(v uint64) {
	for {
		cur := c.v.Load()
		if cur >= v || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}
