package trace

import (
	"math/rand/v2"
	"sync/atomic"
)

// stripes is the fixed stripe count of every striped counter. The
// stripes live in a fixed array so the zero value is ready to use and
// aggregation never chases pointers. Must be a power of two.
const stripes = 16

// paddedUint64 is one stripe, padded out to its own cache line so two
// stripes never share one — the whole point of striping is that 64
// senders incrementing one counter do not serialize on a single line.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// striped is a per-CPU-style striped uint64 counter: increments land on
// a randomly chosen stripe (math/rand/v2 draws from a per-P generator,
// so the choice itself is contention- and allocation-free) and reads sum
// every stripe. Each stripe is individually monotonic, and a sum of
// atomically loaded monotonic values taken strictly after a previous sum
// can never be smaller — so sequential Snapshots stay monotonic, under
// -race included, even though the sum is not a global atomic snapshot.
type striped struct {
	s [stripes]paddedUint64
}

// add increments one randomly chosen stripe.
func (c *striped) add(n uint64) {
	c.s[rand.Uint32()&(stripes-1)].v.Add(n)
}

// load sums every stripe.
func (c *striped) load() uint64 {
	var t uint64
	for i := range c.s {
		t += c.s[i].v.Load()
	}
	return t
}
