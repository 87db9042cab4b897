package trace

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/evolvable-net/evolve/internal/topology"
)

// TestStripedCountersExact verifies that striping never loses or invents
// counts: 64 goroutines hammer every hot-path counter concurrently, 64
// more fold the same tallies in through CounterBatch.FlushTo (one stripe
// per flush), and the final Snapshot must equal the exact arithmetic
// total of both.
func TestStripedCountersExact(t *testing.T) {
	const (
		senders = 64
		perG    = 2000
	)
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b CounterBatch
			for i := 0; i < perG; i++ {
				b.Send()
				b.Deliver()
				b.Redirect(i%2 == 0)
				b.Encap()
				b.Decap()
				b.BoneHops(3)
				b.FlowHit()
				b.FlowMiss()
				b.PayloadBytes(10)
				b.Drop(DropTail)
				b.Ingress(topology.ASN(7 + i%2))
				if i%8 == 7 {
					b.FlushTo(&c)
					b.Reset()
				}
			}
			b.FlushTo(&c)
		}()
	}
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Send()
				c.Deliver()
				c.Redirect(i%2 == 0)
				c.Encap()
				c.Decap()
				c.BoneHops(3)
				c.FlowHit()
				c.FlowMiss()
				c.PayloadBytes(10)
				countDrop(&c, DropTail)
				c.Ingress(7)
			}
		}()
	}
	wg.Wait()

	s := c.Snapshot()
	total := uint64(2 * senders * perG)
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"sends", s.Sends, total},
		{"deliveries", s.Deliveries, total},
		{"redirects", s.Redirects, total},
		{"redirect hits", s.RedirectCacheHits, total / 2},
		{"encaps", s.Encaps, total},
		{"decaps", s.Decaps, total},
		{"bone hops", s.BoneHops, 3 * total},
		{"flow hits", s.DeliveryFlowHits, total},
		{"flow misses", s.DeliveryFlowMisses, total},
		{"payload bytes", s.DeliveryPayloadBytes, 10 * total},
		{"drops[tail]", s.DropsByReason[DropTail], total},
		{"ingress[7]", s.IngressByAS[7], total * 3 / 4},
		{"ingress[8]", s.IngressByAS[8], total / 4},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

// TestStripedCountersMonotonicUnderLoad is the 64-sender monotonicity
// guarantee: while 64 senders increment and 64 more flush batches
// concurrently, a poller taking
// sequential Snapshots must never observe any counter decrease, even
// though a Snapshot is not a globally atomic read of all stripes. Each
// stripe is individually monotonic and stripes are loaded with seqcst
// atomics, so a later sum can never be smaller than an earlier one.
// Meaningful under -race.
func TestStripedCountersMonotonicUnderLoad(t *testing.T) {
	const senders = 64
	var c Counters
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.Send()
				c.Deliver()
				c.Redirect(true)
				c.BoneHops(2)
				c.PayloadBytes(4)
				countDrop(&c, DropRelay)
			}
		}()
		go func() {
			defer wg.Done()
			var b CounterBatch
			for !stop.Load() {
				b.Send()
				b.Deliver()
				b.Redirect(true)
				b.BoneHops(2)
				b.PayloadBytes(4)
				b.Drop(DropRelay)
				b.Ingress(7)
				b.FlushTo(&c)
				b.Reset()
			}
		}()
	}

	var prev Snapshot
	for i := 0; i < 500; i++ {
		s := c.Snapshot()
		if s.Sends < prev.Sends ||
			s.Deliveries < prev.Deliveries ||
			s.Redirects < prev.Redirects ||
			s.RedirectCacheHits < prev.RedirectCacheHits ||
			s.BoneHops < prev.BoneHops ||
			s.DeliveryPayloadBytes < prev.DeliveryPayloadBytes ||
			s.DropsByReason[DropRelay] < prev.DropsByReason[DropRelay] ||
			s.IngressByAS[7] < prev.IngressByAS[7] {
			t.Fatalf("snapshot %d went backwards: %+v -> %+v", i, prev, s)
		}
		prev = s
	}
	stop.Store(true)
	wg.Wait()

	final := c.Snapshot()
	if final.Sends < prev.Sends {
		t.Fatalf("final snapshot below last polled: %d < %d", final.Sends, prev.Sends)
	}
	if final.Sends != final.Deliveries {
		t.Fatalf("sends %d != deliveries %d after quiescence", final.Sends, final.Deliveries)
	}
}

// TestCountersLayout pins what the stripe-major layout is for: a stripe is
// a whole number of cache lines, the send path's counters are a prefix of
// it spanning at most three, and the cells of two stripes never share a
// line — wherever the allocator puts the table.
func TestCountersLayout(t *testing.T) {
	var c Counters
	var b block
	if sz := unsafe.Sizeof(b); sz%cacheLine != 0 {
		t.Errorf("block is %d bytes, not a multiple of %d", sz, cacheLine)
	}
	if off := unsafe.Offsetof(c.s); off != 0 {
		t.Errorf("the stripes start %d bytes into Counters, want 0", off)
	}
	if off := unsafe.Offsetof(b.cells); off != 0 {
		t.Errorf("the scalar cells start %d bytes into a block, want 0", off)
	}
	if end := uintptr(numBatched) * unsafe.Sizeof(b.cells[0]); end > 3*cacheLine {
		t.Errorf("the %d batched counters end at byte %d, past three lines", numBatched, end)
	}
	// The last cell of one stripe and the first of the next are at least a
	// line apart, so no alignment of the table puts them on one line.
	if gap := unsafe.Sizeof(b) - unsafe.Sizeof(b.cells); gap < cacheLine-8 {
		t.Errorf("%d bytes between one stripe's last cell and the next stripe's first, want at least %d", gap, cacheLine-8)
	}
	if got, want := unsafe.Sizeof(c.s), uintptr(stripes)*unsafe.Sizeof(b); got != want {
		t.Errorf("the stripes take %d bytes, want %d × %d", got, stripes, unsafe.Sizeof(b))
	}
	if sz := unsafe.Sizeof(paddedUint64{}); sz != cacheLine {
		t.Errorf("a lone striped cell's stripe is %d bytes, want one line", sz)
	}
}
