// Package hygiene is twm-lint golden-test input: struct fields that mix
// sync/atomic with plain access, and 64-bit atomic fields whose 32-bit
// alignment is not guaranteed.
package hygiene

import "sync/atomic"

type counters struct {
	aligned uint64 // offset 0 everywhere: fine
	flag    uint32
	hits    uint64 // want `64-bit atomic field hits is at offset 12 under 32-bit layout`
	typed   atomic.Uint64
}

func bump(c *counters) {
	atomic.AddUint64(&c.aligned, 1)
	atomic.AddUint64(&c.hits, 1)
	c.typed.Add(1) // typed atomics carry their own guarantees: fine
}

func mixedRead(c *counters) uint64 {
	return c.hits // want `field hits is accessed with atomic.AddUint64 elsewhere but plainly here`
}

func mixedWrite(c *counters) {
	c.aligned = 0 // want `field aligned is accessed with atomic.AddUint64 elsewhere but plainly here`
}

func atomicRead(c *counters) uint64 {
	return atomic.LoadUint64(&c.hits) // every access atomic: fine
}

func suppressedReset(c *counters) {
	c.hits = 0 //twm:allow atomichygiene pooled descriptor, provably unshared here
}

// plain is never touched atomically; plain access everywhere is fine.
type plain struct {
	n uint64
}

func bumpPlain(p *plain) { p.n++ }
