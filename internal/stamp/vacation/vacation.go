// Package vacation is the STAMP travel-reservation benchmark: an in-memory
// database of cars, flights and rooms plus a customer table, all kept in
// transactional red-black trees (internal/ds/rbtree), as in STAMP.
//
// Client transactions follow the STAMP mix: MakeReservation (query a set of
// resources and book the cheapest available per kind), DeleteCustomer (bill
// and release all of a customer's bookings) and UpdateTables (grow tables or
// retire unused resources). "Low" contention queries a wide id range with
// almost only reservations; "high" narrows the range and adds more mutating
// transactions, exactly like the -q/-u/-n knobs of the original.
package vacation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ds/rbtree"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/xrand"
)

// Kind enumerates reservable resource kinds.
type Kind int

// Resource kinds.
const (
	Car Kind = iota
	Flight
	Room
	numKinds
)

// Reservation is a resource row; stored immutably (copies on update) so every
// engine, including NOrec's value-based validation, can handle it.
type Reservation struct {
	Total int
	Used  int
	Price int
}

// resNode is an immutable list cell of a customer's bookings.
type resNode struct {
	kind  Kind
	id    int64
	price int
	next  *resNode
}

// Params configures a vacation instance.
type Params struct {
	Relations    int     // rows per resource table
	Transactions int     // total client transactions
	Queries      int     // resource queries per transaction
	QueryRange   float64 // fraction of the id space queried
	UserPct      float64 // fraction of MakeReservation transactions
	Seed         uint64
}

// Low returns the paper's low-contention configuration (-q90 -u98 -n2).
func Low() Params {
	return Params{Relations: 1 << 10, Transactions: 4096, Queries: 2, QueryRange: 0.90, UserPct: 0.98, Seed: 1}
}

// High returns the high-contention configuration (-q60 -u90 -n4).
func High() Params {
	return Params{Relations: 1 << 10, Transactions: 4096, Queries: 4, QueryRange: 0.60, UserPct: 0.90, Seed: 1}
}

// Small returns a test-sized instance.
func Small() Params {
	return Params{Relations: 64, Transactions: 400, Queries: 3, QueryRange: 0.7, UserPct: 0.9, Seed: 7}
}

// Bench is one benchmark instance.
type Bench struct {
	name      string
	p         Params
	tables    [numKinds]*rbtree.Map // id -> Reservation
	customers *rbtree.Map           // id -> *resNode (booking list)

	reservationsMade atomic.Int64
	customersDeleted atomic.Int64
}

// New returns a vacation workload named name ("vacation-low"/"vacation-high").
func New(name string, p Params) *Bench { return &Bench{name: name, p: p} }

// Name implements stamp.Workload.
func (b *Bench) Name() string { return b.name }

// Setup implements stamp.Workload: populate the three resource tables and the
// customer table.
func (b *Bench) Setup(tm stm.TM) error {
	r := xrand.New(b.p.Seed)
	for k := Kind(0); k < numKinds; k++ {
		b.tables[k] = rbtree.New(tm)
	}
	b.customers = rbtree.New(tm)
	const batch = 64
	for lo := 0; lo < b.p.Relations; lo += batch {
		hi := lo + batch
		if hi > b.p.Relations {
			hi = b.p.Relations
		}
		if err := stm.Atomically(tm, false, func(tx stm.Tx) error {
			for id := lo; id < hi; id++ {
				for k := Kind(0); k < numKinds; k++ {
					b.tables[k].Put(tx, int64(id), Reservation{
						Total: 100 + r.Intn(300),
						Price: 50 + r.Intn(450),
					})
				}
				b.customers.Put(tx, int64(id), (*resNode)(nil))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// makeReservation is the STAMP MAKE_RESERVATION transaction: query Queries
// random resources per kind, remember the cheapest available one of each
// kind, then book them for a random customer.
func (b *Bench) makeReservation(tm stm.TM, r *xrand.Rand) error {
	span := int64(float64(b.p.Relations) * b.p.QueryRange)
	if span < 1 {
		span = 1
	}
	type pick struct {
		kind Kind
		id   int64
	}
	queries := make([]pick, 0, b.p.Queries)
	for i := 0; i < b.p.Queries; i++ {
		queries = append(queries, pick{kind: Kind(r.Intn(int(numKinds))), id: r.Int63() % span})
	}
	custID := r.Int63() % int64(b.p.Relations)
	booked := false
	err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		booked = false
		var best [numKinds]struct {
			id    int64
			price int
			found bool
		}
		for _, q := range queries {
			v, ok := b.tables[q.kind].Get(tx, q.id)
			if !ok {
				continue
			}
			res := v.(Reservation)
			if res.Used >= res.Total {
				continue
			}
			slot := &best[q.kind]
			if !slot.found || res.Price < slot.price {
				slot.id, slot.price, slot.found = q.id, res.Price, true
			}
		}
		custV, ok := b.customers.Get(tx, custID)
		if !ok {
			return nil // customer deleted concurrently; nothing to book
		}
		list, _ := custV.(*resNode)
		for k := Kind(0); k < numKinds; k++ {
			if !best[k].found {
				continue
			}
			v, ok := b.tables[k].Get(tx, best[k].id)
			if !ok {
				continue
			}
			res := v.(Reservation)
			if res.Used >= res.Total {
				continue
			}
			res.Used++
			b.tables[k].Put(tx, best[k].id, res)
			list = &resNode{kind: k, id: best[k].id, price: res.Price, next: list}
			booked = true
		}
		if booked {
			b.customers.Put(tx, custID, list)
		}
		return nil
	})
	if err == nil && booked {
		b.reservationsMade.Add(1)
	}
	return err
}

// deleteCustomer bills a customer and releases all its bookings; the customer
// row is reset rather than removed so the id space stays stable (STAMP
// re-inserts customers on demand; resetting models the same conflict shape).
func (b *Bench) deleteCustomer(tm stm.TM, r *xrand.Rand) error {
	custID := r.Int63() % int64(b.p.Relations)
	deleted := false
	err := stm.Atomically(tm, false, func(tx stm.Tx) error {
		deleted = false
		custV, ok := b.customers.Get(tx, custID)
		if !ok {
			return nil
		}
		list, _ := custV.(*resNode)
		if list == nil {
			return nil
		}
		for n := list; n != nil; n = n.next {
			// A booked row exists with Used > 0 in every consistent snapshot
			// (updateTables deletes only unused rows), so either branch below
			// means this attempt is doomed on an engine that is not opaque
			// (avstm): restart it. Validate stays the corruption detector.
			v, ok := b.tables[n.kind].Get(tx, n.id)
			if !ok {
				stm.Retry(stm.ReasonReadConflict)
			}
			res := v.(Reservation)
			res.Used--
			if res.Used < 0 {
				stm.Retry(stm.ReasonReadConflict)
			}
			b.tables[n.kind].Put(tx, n.id, res)
		}
		b.customers.Put(tx, custID, (*resNode)(nil))
		deleted = true
		return nil
	})
	if err == nil && deleted {
		b.customersDeleted.Add(1)
	}
	return err
}

// updateTables is the STAMP UPDATE_TABLES transaction: grow a resource's
// capacity and reprice it, or retire an unused resource.
func (b *Bench) updateTables(tm stm.TM, r *xrand.Rand) error {
	kind := Kind(r.Intn(int(numKinds)))
	id := r.Int63() % int64(b.p.Relations)
	add := r.Bool(0.5)
	price := 50 + r.Intn(450)
	return stm.Atomically(tm, false, func(tx stm.Tx) error {
		v, ok := b.tables[kind].Get(tx, id)
		if !ok {
			if add {
				b.tables[kind].Put(tx, id, Reservation{Total: 100, Price: price})
			}
			return nil
		}
		res := v.(Reservation)
		if add {
			res.Total += 100
			res.Price = price
			b.tables[kind].Put(tx, id, res)
		} else if res.Used == 0 {
			b.tables[kind].Delete(tx, id)
		}
		return nil
	})
}

// Run implements stamp.Workload: workers split the transaction budget and
// draw operations from the STAMP mix.
func (b *Bench) Run(tm stm.TM, threads int) error {
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	base := xrand.New(b.p.Seed + 42)
	perW := (b.p.Transactions + threads - 1) / threads
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(r *xrand.Rand) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				p := r.Float64()
				var err error
				switch {
				case p < b.p.UserPct:
					err = b.makeReservation(tm, r)
				case p < b.p.UserPct+(1-b.p.UserPct)/2:
					err = b.deleteCustomer(tm, r)
				default:
					err = b.updateTables(tm, r)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(base.Split(w))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// Stats returns op counters for reporting.
func (b *Bench) Stats() (reservations, deletions int64) {
	return b.reservationsMade.Load(), b.customersDeleted.Load()
}

// Validate implements stamp.Workload: the database must balance — every
// resource has 0 <= Used <= Total, and the Used counts equal the customers'
// outstanding bookings, grouped by resource.
func (b *Bench) Validate(tm stm.TM) error {
	return stm.Atomically(tm, true, func(tx stm.Tx) error {
		type key struct {
			k  Kind
			id int64
		}
		held := map[key]int{}
		b.customers.ForEach(tx, func(id int64, v stm.Value) bool {
			list, _ := v.(*resNode)
			for n := list; n != nil; n = n.next {
				held[key{n.kind, n.id}]++
			}
			return true
		})
		for k := Kind(0); k < numKinds; k++ {
			var tableErr error
			b.tables[k].ForEach(tx, func(id int64, v stm.Value) bool {
				res := v.(Reservation)
				if res.Used < 0 || res.Used > res.Total {
					tableErr = fmt.Errorf("vacation: %d/%d out of range: %+v", k, id, res)
					return false
				}
				if held[key{k, id}] != res.Used {
					tableErr = fmt.Errorf("vacation: %d/%d Used=%d but customers hold %d", k, id, res.Used, held[key{k, id}])
					return false
				}
				delete(held, key{k, id})
				return true
			})
			if tableErr != nil {
				return tableErr
			}
		}
		if len(held) != 0 {
			return fmt.Errorf("vacation: bookings on missing resources: %v", held)
		}
		return nil
	})
}

var _ stamp.Workload = (*Bench)(nil)
