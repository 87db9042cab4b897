package trace

import (
	"math/rand/v2"
	"sync/atomic"
)

// stripes is the fixed stripe count of the counter table. The stripes
// live in a fixed array so the zero value is ready to use and aggregation
// never chases pointers. Must be a power of two.
const stripes = 16

// cacheLine is the line size the layout below is padded to.
const cacheLine = 64

// numCells is the cells of one stripe: the scalar counters, indexed by
// counterID, then one per drop reason (see dropCell).
const numCells = int(numCounters) + int(numDropReasons)

// block is one stripe of the whole table. The table is laid out
// stripe-major so that whoever has picked a stripe — a CounterBatch flush
// above all — does all its adds on a few adjacent lines: the send path's
// numBatched counters are a contiguous prefix spanning three. The pad
// rounds the block up to whole lines and leaves at least a line's worth
// of slack behind the last cell, so two stripes never share a line even
// when the allocator hands Counters out on an 8-byte boundary — the whole
// point of striping is that 64 senders do not serialize on one line.
type block struct {
	cells [numCells]atomic.Uint64
	_     [(numCells*8+2*(cacheLine-8))/cacheLine*cacheLine - numCells*8]byte
}

// dropCell is the cell drop reason r counts in.
func dropCell(r DropReason) counterID { return numCounters + counterID(r) }

// pick draws the stripe an increment or a flush lands on: math/rand/v2
// draws from a per-P generator, so the choice itself is contention- and
// allocation-free.
func pick() uint32 { return rand.Uint32() & (stripes - 1) }

// add increments cell id on one randomly chosen stripe.
func (c *Counters) add(id counterID, n uint64) { c.s[pick()].cells[id].Add(n) }

// load sums cell id over every stripe. Each cell of each stripe is
// individually monotonic, and a sum of atomically loaded monotonic values
// taken strictly after a previous sum can never be smaller — so
// sequential Snapshots stay monotonic, under -race included, even though
// a sum is not a global atomic snapshot.
func (c *Counters) load(id counterID) uint64 {
	var t uint64
	for i := range c.s {
		t += c.s[i].cells[id].Load()
	}
	return t
}

// paddedUint64 is one stripe of a lone striped cell, padded out to its
// own cache line.
type paddedUint64 struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// striped is a lone striped cell, for the tallies the table cannot hold
// because their key set is open: the per-AS ingress counts. An increment
// names its stripe (a flush reuses the one it drew for the table) and a
// read sums them all.
type striped struct {
	s [stripes]paddedUint64
}

func (c *striped) load() uint64 {
	var t uint64
	for i := range c.s {
		t += c.s[i].v.Load()
	}
	return t
}
